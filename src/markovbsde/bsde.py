"""BSDEs driven by the chain martingale, solved by exact reduction to a
coupled backward ODE system.

With a Markovian driver and terminal condition, writing Y_t = y(t)'X_t and
taking the canonical integrand Z_t = y(t) turns the backward equation into

    dy_i/dt = -(A'(t) y(t))_i - f(t, i, y_i(t), y(t)),   y(T) = terminal,

because the jump of Y at a transition i -> j is exactly y_j - y_i = Z'dX.
``_rhs`` is that right-hand side, for the RK4 stages (``chain.rk4_down``),
the residual's Hermite slopes and the reflected predictor of ``rbsde``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import check_contraction, rk4_down, split_down
from .errors import (ContractionViolatedError, NonFiniteError,
                     PreconditionUnmetError)
from .grids import StateGridFunction, uniform_grid


@dataclass(frozen=True)
class MarkovDriver:
    """Driver f(t, state, y, z) with its Lipschitz constants.

    ``lipschitz_y`` bounds the y-increment, ``lipschitz_z`` the increment
    against the quadratic-variation seminorm.
    """

    evaluate: callable
    lipschitz_y: float = 0.0
    lipschitz_z: float = 0.0


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution on a uniform grid; Y_t = y'X_t, Z_t = y(t)."""

    y: StateGridFunction
    scheme: str
    steps: int

    @property
    def grid(self):
        return self.y.grid

    @property
    def values(self):
        return self.y.values


def zero_driver():
    return MarkovDriver(evaluate=lambda t, i, y, z: 0.0)


def discount_driver(rate):
    """f = -rate * y, the constant-rate discounting driver."""
    r = float(rate)
    return MarkovDriver(evaluate=lambda t, i, y, z: -r * y, lipschitz_y=abs(r))


def _scalar_implicit(f, t, i, b, dt, zref, lip_hint):
    """Solve v = b + dt * f(t, i, v, zref) for v.

    Newton with a secant slope, bisection fallback. The implicit part is
    only the local v-dependence; the z argument stays frozen at zref.
    """
    def phi(v):
        return v - b - dt * f(t, i, v, zref)

    v = b + dt * f(t, i, b, zref)
    for _ in range(50):
        r0 = phi(v)
        if abs(r0) <= 1e-14 * (1.0 + abs(v)):
            return v
        h = 1e-7 * (1.0 + abs(v))
        slope = (phi(v + h) - r0) / h
        if slope <= 1e-12:
            break
        step = r0 / slope
        v -= step
        if abs(step) <= 1e-15 * (1.0 + abs(v)):
            return v
    # bracket and bisect
    span = max(1.0, abs(b)) * (1.0 + dt * lip_hint)
    lo, hi = b - span, b + span
    for _ in range(200):
        if phi(lo) <= 0 <= phi(hi):
            break
        lo -= span
        hi += span
        span *= 2.0
    else:
        raise NonFiniteError("implicit step failed to bracket a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def _rhs(gen, driver, t, y):
    """Right-hand side -(A'y)_i - f(t, i, y_i, y) of the reduced ODE under
    the generator ``gen``, for every state i."""
    at_y = gen.T @ y
    out = np.empty(y.size)
    for i in range(y.size):
        out[i] = -at_y[i] - driver.evaluate(t, i, y[i], y)
    return out


def _implicit_step(spec, driver, t_hi, t_lo, y):
    cuts = split_down(spec.breakpoints(), t_lo, t_hi)
    n = y.size
    lip = driver.lipschitz_y + driver.lipschitz_z + 1.0
    for a_t, b_t in zip(cuts[:-1], cuts[1:]):
        dt = a_t - b_t
        gen = spec.generator_at(0.5 * (a_t + b_t))
        b = y + dt * (gen.T @ y)
        new = np.empty(n)
        for i in range(n):
            new[i] = _scalar_implicit(driver.evaluate, b_t, i, b[i], dt, y, lip)
        y = new
    return y


def solve_bsde(spec, driver, terminal, steps, scheme="explicit_rk4",
               strict_contraction=False):
    """Integrate the backward state-space reduction on a uniform grid.

    scheme is "explicit_rk4" (default) or "implicit_euler". The terminal
    node is the given vector exactly; no integration touches it. A failed
    ``check_contraction`` warns, or raises under ``strict_contraction``.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (spec.n_states,):
        raise ValueError("terminal condition must be a length-N vector")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if scheme not in ("explicit_rk4", "implicit_euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if driver.lipschitz_z > 0:
        report = check_contraction(spec, driver.lipschitz_z)
        if not report["holds"]:
            msg = (f"z-Lipschitz contraction fails, margin "
                   f"{report['worst_margin']:.3g} at {report['worst_time_state']}")
            if strict_contraction:
                raise ContractionViolatedError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    grid = uniform_grid(spec.horizon, steps)
    values = np.empty((steps + 1, spec.n_states))
    values[-1] = terminal

    def field(t_mid):
        gen = spec.generator_at(t_mid)
        return lambda t, y: _rhs(gen, driver, t, y)

    for k in range(steps - 1, -1, -1):
        if scheme == "explicit_rk4":
            values[k] = rk4_down(spec.breakpoints(), grid[k + 1], grid[k],
                                 values[k + 1], field)
        else:
            values[k] = _implicit_step(spec, driver, grid[k + 1], grid[k],
                                       values[k + 1])
        if not np.all(np.isfinite(values[k])):
            raise NonFiniteError(f"driver blow-up at t={grid[k]:.6g}")
    return BsdeSolution(y=StateGridFunction(grid=grid, values=values),
                        scheme=scheme, steps=int(steps))


def _hermite_curve(spec, driver, sol):
    """t -> y(t), the cubic Hermite interpolant of the grid values with
    slopes dy/dt from the reduced ODE. Each step takes the slope at either
    end under the generator of its own piece there: at a breakpoint on a
    node, the step ending there takes the left limit and the step starting
    there the right limit."""
    grid, vals, dt = sol.grid, sol.values, sol.y.step
    lo = np.empty((grid.size - 1, vals.shape[1]))
    hi = np.empty_like(lo)
    for k in range(grid.size - 1):
        cuts = split_down(spec.breakpoints(), grid[k], grid[k + 1])
        lo[k] = _rhs(spec.generator_at(0.5 * (cuts[-2] + grid[k])), driver,
                     grid[k], vals[k])
        hi[k] = _rhs(spec.generator_at(0.5 * (grid[k + 1] + cuts[1])), driver,
                     grid[k + 1], vals[k + 1])

    def curve(t):
        if t <= grid[0]:
            return vals[0]
        if t >= grid[-1]:
            return vals[-1]
        k = min(int((t - grid[0]) / dt), grid.size - 2)
        s = (t - grid[k]) / dt
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * vals[k] + h10 * dt * lo[k]
                + h01 * vals[k + 1] + h11 * dt * hi[k])

    return curve


def pathwise_residual(solution, paths, spec, driver, terminal):
    """Max discrepancy, over grid nodes, between both sides of the backward
    equation evaluated along each path of the batch: one value per path.

    The stochastic integral uses exact jump increments y_j - y_i minus the
    compensator integral of y'A X; time integrals use Hermite-Simpson
    quadrature on each stretch of constant state and constant generator
    piece (``PathBatch.stretches`` cut at the grid nodes and the schedule
    breakpoints), with that stretch's generator, so the residual tracks
    the scheme error.
    """
    terminal = np.asarray(terminal, dtype=float)
    grid = solution.grid
    curve = _hermite_curve(spec, driver, solution)

    def f_at(t, i):
        y = curve(t)
        return driver.evaluate(t, i, y[i], y)

    def simpson(fn, a, b):
        return (b - a) / 6.0 * (fn(a) + 4.0 * fn(0.5 * (a + b)) + fn(b))

    # forward integrals of f and of y' dM over [0, t], read at the grid nodes
    f_cum = np.zeros((paths.n_paths, grid.size))
    m_cum = np.zeros_like(f_cum)
    cuts = sorted(set(grid.tolist()) | set(spec.breakpoints()))
    walk = paths.stretches(cuts, spec.starts)
    for p, t0, t1, i, piece, to in zip(*(a.tolist() for a in walk)):
        if t0 == 0.0:  # the path's first stretch
            f_int = m_int = 0.0
            gi = 1
        col = spec.schedule[piece][1][:, i]
        f_int += simpson(lambda t: f_at(t, i), t0, t1)
        m_int -= simpson(lambda t: float(curve(t) @ col), t0, t1)
        if to >= 0:
            yj = curve(t1)
            m_int += float(yj[to] - yj[i])
        while gi < grid.size and grid[gi] <= t1 + 1e-15:
            f_cum[p, gi], m_cum[p, gi] = f_int, m_int
            gi += 1
    states = paths.states_at(grid)
    y_path = solution.values[np.arange(grid.size), states]
    rhs = terminal[states[:, -1:]] + (f_cum[:, -1:] - f_cum) - (m_cum[:, -1:] - m_cum)
    return np.abs(y_path - rhs).max(axis=1)


def comparison_check(spec, driver1, terminal1, driver2, terminal2, steps,
                     rng_seed=0):
    """Order two BSDE solutions: terminal1 <= terminal2 and f1 <= f2 must
    give y1 <= y2 everywhere (up to 1e-9).

    The driver ordering is spot-checked on 64 random (t, state, y, z)
    quadruples; driver1 must satisfy the contraction condition, checked by
    its ``solve_bsde`` under ``strict_contraction``.
    """
    t1 = np.asarray(terminal1, dtype=float)
    t2 = np.asarray(terminal2, dtype=float)
    if np.any(t1 > t2 + 1e-12):
        raise PreconditionUnmetError("terminal conditions are not ordered")
    rng = np.random.default_rng(rng_seed)
    for _ in range(64):
        t = rng.uniform(0.0, spec.horizon)
        i = int(rng.integers(spec.n_states))
        y = rng.normal(scale=2.0)
        z = rng.normal(scale=2.0, size=spec.n_states)
        if driver1.evaluate(t, i, y, z) > driver2.evaluate(t, i, y, z) + 1e-12:
            raise PreconditionUnmetError(
                f"driver ordering fails at t={t:.4g}, state={i}")
    sol1 = solve_bsde(spec, driver1, t1, steps, strict_contraction=True)
    sol2 = solve_bsde(spec, driver2, t2, steps)
    gap = sol1.values - sol2.values
    max_violation = float(gap.max())
    return {"holds": bool(max_violation <= 1e-9),
            "max_violation": max_violation}

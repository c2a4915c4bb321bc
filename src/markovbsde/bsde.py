"""BSDEs driven by the chain martingale, solved by exact reduction to a
coupled backward ODE system.

With a Markovian driver and terminal condition, writing Y_t = y(t)'X_t and
taking the canonical integrand Z_t = y(t) turns the backward equation into

    dy_i/dt = -(A'(t) y(t))_i - f(t, i, y_i(t), y(t)),   y(T) = terminal,

because the jump of Y at a transition i -> j is exactly y_j - y_i = Z'dX.
``_rhs`` is that right-hand side, for the RK4 stages (``chain.rk4_down``)
and the reflected predictor of ``rbsde``.
A driver that carries its ``AffineForm`` makes the system linear on each
piece, y' = -(A' + G + diag(alpha)) y - beta; the solvers then step it
with per-piece matrices and never call the driver back.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (affine_rk4, check_contraction, piece_index, pieces_at, rk4_down,
                    substeps, sums_at, sweep)
from .errors import (ContractionViolatedError, NonFiniteError,
                     PreconditionUnmetError)
from .grids import StateGridFunction, uniform_grid


@dataclass(frozen=True)
class AffineForm:
    """f(t, i, y, z) = alpha[k, i] y + (gz[k] z)_i + beta[k, i] on the piece
    k in force at t, which starts at starts[k]; with an ``obstacle``, plus
    the penalty n (g(t, i) - y)^+. ``alpha``, ``gz`` and ``beta`` broadcast
    to (pieces, N), (pieces, N, N) and (pieces, N)."""

    starts: tuple = (0.0,)
    alpha: object = 0.0
    gz: object = 0.0
    beta: object = 0.0
    obstacle: object = None
    n: float = 0.0


@dataclass(frozen=True)
class MarkovDriver:
    """Driver f(t, state, y, z) with its Lipschitz constants.

    ``lipschitz_y`` bounds the y-increment, ``lipschitz_z`` the increment
    against the quadratic-variation seminorm. ``affine``, when given, is
    the same f as an ``AffineForm``, which the solvers use in place of
    ``evaluate``; without an ``evaluate``, f is read off the (unpenalized)
    form, and an f read off one form is read again off the form a copy
    made by ``dataclasses.replace`` holds.
    """

    evaluate: callable = None
    lipschitz_y: float = 0.0
    lipschitz_z: float = 0.0
    affine: AffineForm = None

    def __post_init__(self):
        if self.evaluate is None \
                or getattr(self.evaluate, "form", self.affine) is not self.affine:
            object.__setattr__(self, "evaluate", _affine_evaluate(self.affine))


def _affine_evaluate(form):
    """f(t, i, y, z) = alpha_i y + (G z)_i + beta_i of the form's piece at t,
    with the form's arrays broadcast once per number of states."""
    arrays = {}

    def evaluate(t, i, y, z):
        n = len(z)
        if n not in arrays:
            shape = (len(form.starts), n)
            arrays[n] = (np.broadcast_to(form.alpha, shape),
                         np.broadcast_to(form.gz, shape + (n,)),
                         np.broadcast_to(form.beta, shape))
        alpha, gz, beta = arrays[n]
        k = piece_index(form.starts, t)
        return alpha[k, i] * y + gz[k, i] @ z + beta[k, i]

    evaluate.form = form
    return evaluate


@dataclass(frozen=True)
class BsdeSolution(StateGridFunction):
    """Backward solution y on a uniform grid; Y_t = y'X_t, Z_t = y(t)."""

    scheme: str
    steps: int


def zero_driver():
    return MarkovDriver(affine=AffineForm())


def discount_driver(rate):
    """f = -rate * y, the constant-rate discounting driver."""
    r = float(rate)
    return MarkovDriver(evaluate=lambda t, i, y, z: -r * y, lipschitz_y=abs(r))


def _scalar_implicit(f, t, i, b, dt, zref, lip_hint):
    """Solve v = b + dt * f(t, i, v, zref) for v.

    Newton with a secant slope, bisection fallback. The implicit part is
    only the local v-dependence; the z argument stays frozen at zref. A
    non-finite b is returned as it is, and nan where no root is bracketed:
    ``chain.sweep`` then names the node.
    """
    if not math.isfinite(b):
        return b

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
        return np.nan
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


def _linear_pieces(spec, form):
    """The merged pieces of the chain and the affine form ``form``: their
    starts, and per piece A' + G, alpha and beta."""
    starts = sorted(set(spec.starts) | set(form.starts))
    n = spec.n_states
    shape = (len(form.starts), n)
    k = [piece_index(form.starts, t) for t in starts]
    a_g = (np.array([spec.generator_at(t).T for t in starts])
           + np.broadcast_to(form.gz, shape + (n,))[k])
    return (starts, a_g, np.broadcast_to(form.alpha, shape)[k],
            np.broadcast_to(form.beta, shape)[k])


def _linear_implicit(spec, form, grid):
    """Implicit Euler steps of the affine form on the sub-steps of
    ``chain.substeps`` at the chain breakpoints, in closed form per state.
    With z frozen at the top value y, b + h beta' = y + h ((A' + G) y +
    beta), and v = (b + h beta') / (1 - h alpha) where that is at least g,
    else (b + h beta' + h n g) / (1 - h alpha + h n). Coefficients and g
    are those at the bottom time: the step(k, y) of ``_implicit_levels``
    at the form's own n."""
    return _implicit_levels(spec, form, grid)(form.n)


def _implicit_levels(spec, form, grid):
    """n -> the step(k, y) of ``_linear_implicit`` with the penalty level n
    in place of form.n. Each sub-step's h, piece, denominators and
    obstacle row are tabled once, for every level; a level adds only its
    h n terms."""
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
    if np.any(1.0 - (grid[1] - grid[0]) * alpha <= 0.0):
        raise NonFiniteError("implicit step has a non-positive 1 - h alpha")
    times, first = substeps(spec.breakpoints(), grid)
    bottom, h = times[:-1], np.diff(times)
    piece = pieces_at(starts, bottom)
    den = 1.0 - h[:, None] * alpha[piece]
    penalized = form.obstacle is not None
    if penalized:
        g = np.empty_like(den)
        g[first[:-1]] = form.obstacle.sample(grid, spec.n_states)[:-1]
        off = np.delete(np.arange(bottom.size), first[:-1])  # breakpoints off the nodes
        if off.size:
            g[off] = form.obstacle.sample(bottom[off], spec.n_states)
    first, piece = first.tolist(), piece.tolist()

    def level(n):
        if penalized:
            hn = h * n
            hng, den_n = hn[:, None] * g, den + hn[:, None]

        def step(k, y):
            for s in range(first[k + 1] - 1, first[k] - 1, -1):
                num = y + h[s] * (a_g[piece[s]] @ y + beta[piece[s]])
                y = num / den[s]
                if penalized:
                    y = np.where(y < g[s], (num + hng[s]) / den_n[s], y)
            return y

        return step

    return level


def _callback_step(spec, driver, scheme, grid):
    """step(k, y) of ``driver.evaluate`` down from grid[k + 1]: per sub-step
    of ``chain.substeps`` at the chain breakpoints, under its piece's
    generator, one RK4 step of the reduced ODE or one implicit Euler step,
    each state by ``_scalar_implicit`` with A'y and z frozen at the top."""
    times, first = substeps(spec.breakpoints(), grid)
    gens = [spec.schedule[p][1] for p in pieces_at(spec.starts, times[:-1])]
    lip = driver.lipschitz_y + driver.lipschitz_z + 1.0

    def rk4(s, y):
        return rk4_down(lambda t, y: _rhs(gens[s], driver, t, y), times[s + 1], times[s], y)

    def implicit(s, y):
        h = times[s + 1] - times[s]
        b = y + h * (gens[s].T @ y)
        return np.array([_scalar_implicit(driver.evaluate, times[s], i, b[i], h, y, lip)
                         for i in range(y.size)])

    def step(k, y):
        for s in range(first[k + 1] - 1, first[k] - 1, -1):
            y = rk4(s, y) if scheme == "explicit_rk4" else implicit(s, y)
        return y

    return step


def _checked(spec, driver, terminal, steps, scheme, strict_contraction):
    """(terminal, grid) of a ``solve_bsde`` call, after its checks of the
    inputs and of the contraction condition."""
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
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return terminal, uniform_grid(spec.horizon, steps)


def solve_bsde(spec, driver, terminal, steps, scheme="explicit_rk4",
               strict_contraction=False):
    """Integrate the backward state-space reduction on a uniform grid.

    scheme is "explicit_rk4" (default) or "implicit_euler". The terminal
    node is the given vector exactly; no integration touches it. A driver
    with an affine form is stepped in closed form: RK4 by per-piece step
    matrices (a penalized form falls back to ``evaluate`` there), implicit
    Euler by ``_linear_implicit``. A failed ``check_contraction`` warns,
    or raises under ``strict_contraction``.
    """
    terminal, grid = _checked(spec, driver, terminal, steps, scheme, strict_contraction)
    form = driver.affine
    if form is not None and scheme == "implicit_euler":
        step = _linear_implicit(spec, form, grid)
    elif form is not None and form.obstacle is None:
        starts, a_g, alpha, beta = _linear_pieces(spec, form)
        step = affine_rk4(starts, a_g + alpha[:, :, None] * np.eye(spec.n_states), beta,
                          grid)
    else:
        step = _callback_step(spec, driver, scheme, grid)
    values = sweep(step, terminal, grid, "driver blow-up")
    return BsdeSolution(grid=grid, values=values, scheme=scheme, steps=int(steps))


def _hermite_curve(spec, driver, sol):
    """times -> (len(times), N) values y(t), the cubic Hermite interpolant
    of the grid values with slopes dy/dt = -A'y - f from the reduced ODE,
    f read once per node. Each step takes the slope at either end under
    the generator of its own piece there: at a breakpoint on a node, the
    step ending there takes the left limit and the step starting there the
    right limit."""
    grid, vals = sol.grid, sol.values
    steps = grid.size - 1
    dt = (grid[-1] - grid[0]) / steps
    f = np.array([[driver.evaluate(t, i, y[i], y) for i in range(y.size)]
                  for t, y in zip(grid.tolist(), vals)])
    gens_t = np.array([a.T for _, a in spec.schedule])
    lo = -(gens_t[pieces_at(spec.starts, grid[:-1])] @ vals[:-1, :, None])[:, :, 0] - f[:-1]
    hi = -(gens_t[pieces_at(spec.starts, grid[1:], side="left")]
           @ vals[1:, :, None])[:, :, 0] - f[1:]

    def curve(times):
        k = np.clip(((times - grid[0]) / dt).astype(np.intp), 0, steps - 1)
        s = ((times - grid[k]) / dt)[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * vals[k] + h10 * dt * lo[k]
               + h01 * vals[k + 1] + h11 * dt * hi[k])
        out[times <= grid[0]] = vals[0]
        out[times >= grid[-1]] = vals[-1]
        return out

    return curve


def pathwise_residual(solution, paths, spec, driver, terminal):
    """Max discrepancy, over grid nodes, between both sides of the backward
    equation evaluated along each path of the batch: one value per path.

    The stochastic integral uses exact jump increments y_j - y_i minus the
    compensator integral of y'A X; time integrals use Hermite-Simpson
    quadrature on each stretch of constant state and constant generator
    piece (``PathBatch.stretches`` cut at the grid nodes and the schedule
    breakpoints), with that stretch's generator, so the residual tracks
    the scheme error. The integrals over [0, t] are running sums over the
    stretches, read at the grid nodes (``chain.sums_at``); f is called
    once per Simpson point.
    """
    terminal = np.asarray(terminal, dtype=float)
    grid = solution.grid
    curve = _hermite_curve(spec, driver, solution)
    cuts = sorted(set(grid.tolist()) | set(spec.breakpoints()))
    path, t0, t1, state, piece, to = paths.stretches(cuts, spec.starts)
    cols = np.array([a for _, a in spec.schedule])[piece, :, state]
    f_int = np.zeros(path.size)
    m_int = np.zeros(path.size)
    for t, weight in ((t0, 1.0), (0.5 * (t0 + t1), 4.0), (t1, 1.0)):
        ys = curve(t)
        f_int += weight * np.array([driver.evaluate(u, i, y[i], y) for u, i, y
                                    in zip(t.tolist(), state.tolist(), ys)])
        m_int -= weight * np.einsum("sn,sn->s", ys, cols)
    rows = np.arange(path.size)
    jumped = np.where(to >= 0, ys[rows, to] - ys[rows, state], 0.0)  # ys at t1
    terms = np.column_stack([f_int, m_int]) * ((t1 - t0) / 6.0)[:, None]
    terms[:, 1] += jumped
    # forward integrals of f and of y' dM over [0, t], read at the grid nodes
    f_cum, m_cum = np.moveaxis(sums_at(paths.n_paths, path, terms, t1, grid), 2, 0)
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

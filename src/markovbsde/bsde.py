"""BSDEs driven by the chain martingale, solved by exact reduction to a
coupled backward ODE system.

With a Markovian driver and terminal condition, writing Y_t = y(t)'X_t and
taking the canonical integrand Z_t = y(t) turns the backward equation into

    dy_i/dt = -(A'(t) y(t))_i - f(t, i, y_i(t), y(t)),   y(T) = terminal,

because the jump of Y at a transition i -> j is exactly y_j - y_i = Z'dX.
``_callback_step`` writes that right-hand side out on Python floats in
each of its steps (RK4, implicit Euler and the reflected predictor); a
driver's f gets t and y as floats and z as a float64 array, and its value
is read with ``float()``.
A driver that carries its ``AffineForm`` makes the system linear on each
piece, y' = -(A' + G + diag(alpha)) y - beta; the solvers then solve it
on the affine maps of its steps (``chain.scan``, and ``chain.solve_floored``
under a penalty) and never call the driver back.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (affine_rk4, check_contraction, dots, frozen_starts, pieces_at, solve_affine,
                    solve_floored, substeps, sums_at, sweep)
from .errors import (ContractionViolatedError, NonFiniteError,
                     PreconditionUnmetError)
from .grids import StateGridFunction, uniform_grid

_BLOW_UP = "driver blow-up"


@dataclass(frozen=True)
class AffineForm:
    """f(t, i, y, z) = alpha[k, i] y + (gz[k] z)_i + beta[k, i] on the piece
    k in force at t, which starts at starts[k], as ``chain.frozen_starts``
    checks them with no horizon. ``alpha``, ``gz`` and ``beta`` broadcast
    to (pieces, N), (pieces, N, N) and (pieces, N)."""

    starts: tuple = (0.0,)
    alpha: object = 0.0
    gz: object = 0.0
    beta: object = 0.0

    def __post_init__(self):
        object.__setattr__(self, "starts", frozen_starts(self.starts, "affine form"))


@dataclass(frozen=True)
class MarkovDriver:
    """Driver f(t, state, y, z) with its Lipschitz constants.

    ``lipschitz_y`` bounds the y-increment, ``lipschitz_z`` the increment
    against the quadratic-variation seminorm. ``affine``, when given, is
    the same f as an ``AffineForm``, which the solvers use in place of
    ``evaluate``; without an ``evaluate``, f is read off the form, and an
    f read off one form is read again off the form a copy made by
    ``dataclasses.replace`` holds. A driver with neither f nor a form to
    read it off raises ``ValueError``.
    """

    evaluate: callable = None
    lipschitz_y: float = 0.0
    lipschitz_z: float = 0.0
    affine: AffineForm = None

    def __post_init__(self):
        if self.evaluate is None \
                or getattr(self.evaluate, "form", self.affine) is not self.affine:
            if self.affine is None:
                raise ValueError("a driver needs its f or an affine form to read f off")
            object.__setattr__(self, "evaluate", _affine_evaluate(self.affine))


def _affine_evaluate(form):
    """f(t, i, y, z) of the affine form ``form``, by ``_form_at`` at one
    point, on the form's tables made once per number of states."""
    tables = functools.cache(functools.partial(_form_tables, form))

    def evaluate(t, i, y, z):
        z = np.asarray(z)
        return _form_at(tables(z.shape[-1]), t, i, y, z)

    evaluate.form = form
    return evaluate


def _form_tables(form, n):
    """(starts, alpha, G, beta) of the affine form with n states: its
    starts as an array, and its arrays broadcast to (pieces, n),
    (pieces, n, n) and (pieces, n)."""
    shape = (len(form.starts), n)
    return (np.asarray(form.starts, dtype=float), np.broadcast_to(form.alpha, shape),
            np.broadcast_to(form.gz, shape + (n,)), np.broadcast_to(form.beta, shape))


def _form_at(tables, times, states, y, z):
    """alpha y + dots(G, z) + beta of an affine form's ``_form_tables`` at
    each point p (or at one point): the piece at times[p], the state
    states[p], y[p] and z[p]."""
    starts, alpha, gz, beta = tables
    k = pieces_at(starts, times)
    return alpha[k, states] * y + dots(gz[k, states], z) + beta[k, states]


def _driver_at(driver, times, states, ys):
    """f(times[p], states[p], ys[p, states[p]], ys[p]) at each point p: off
    the driver's affine form in one pass, else by one call of ``evaluate``
    a point."""
    if driver.affine is None:
        return np.array([float(driver.evaluate(t, i, y.item(i), y))
                         for t, i, y in zip(times.tolist(), states.tolist(), ys)])
    return _form_at(_form_tables(driver.affine, ys.shape[-1]), times, states,
                    ys[np.arange(states.size), states], ys)


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


def _scalar_implicit(f, t, i, b, dt, z, lip_hint):
    """Solve v = b + dt * f(t, i, v, z) for v on Python floats: Newton with
    a secant slope, calling f itself at each point, and a bisection
    fallback, the only part that builds a residual function. The implicit
    part is only the local v-dependence; the z argument stays frozen. A
    non-finite b is returned as it is, and nan where no root is bracketed:
    ``chain.sweep`` then names the node."""
    if not math.isfinite(b):
        return b
    v = b + dt * float(f(t, i, b, z))
    for _ in range(50):
        r0 = v - b - dt * float(f(t, i, v, z))
        if abs(r0) <= 1e-14 * (1.0 + abs(v)):
            return v
        h = 1e-7 * (1.0 + abs(v))
        vh = v + h
        slope = (vh - b - dt * float(f(t, i, vh, z)) - r0) / h
        if slope <= 1e-12:
            break
        step = r0 / slope
        v -= step
        if abs(step) <= 1e-15 * (1.0 + abs(v)):
            return v

    def phi(v):
        return v - b - dt * float(f(t, i, v, z))

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
        return math.nan
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def _linear_pieces(spec, form):
    """The merged pieces of the chain and the affine form ``form``: their
    starts, and per piece A' + G, alpha and beta."""
    starts = sorted(set(spec.starts) | set(form.starts))
    form_starts, alpha, gz, beta = _form_tables(form, spec.n_states)
    k = pieces_at(form_starts, starts)
    gens_t = spec.gens[pieces_at(spec.starts, starts)].transpose(0, 2, 1)
    # C order, as the matrix-vector products of the implicit steps read it
    return starts, np.ascontiguousarray(gens_t + gz[k]), alpha[k], beta[k]


def _levels(spec, driver, scheme, grid, obstacle=None, g=None):
    """(n, top, start=None) -> (values, choice): the solve of ``driver``
    under ``scheme`` down the ``grid`` from values[-1] = ``top``: at n = 0
    for ``solve_bsde``, and with an ``obstacle`` (of grid sample ``g``, if
    taken) the penalty level n of f + n (g - y)^+ under implicit Euler, the
    one scheme of a penalized solve. An affine form under RK4 is solved on
    the ``chain.affine_rk4`` maps by ``chain.solve_affine``; every other
    solve on the ``chain.substeps`` table and the ``_obstacle_rows`` there,
    built once for every level: an affine form on ``_implicit_maps``, by
    ``chain.solve_floored`` from ``start`` with the penalty, else by
    ``chain.solve_affine``, a callback driver by ``chain.sweep`` on
    ``_callback_step``. ``choice`` is that of a penalized affine solve,
    which ``start`` takes back at the next level, else None."""
    form = driver.affine
    if form is not None and scheme == "explicit_rk4":
        starts, a_g, alpha, beta = _linear_pieces(spec, form)
        maps = affine_rk4(starts, a_g + alpha[:, :, None] * np.eye(spec.n_states), beta, grid)
        first = np.arange(grid.size)
        return lambda n, top, start=None: (
            solve_affine(maps, top, grid, first, _BLOW_UP), None)
    times, first = substeps(spec.breakpoints(), grid)
    rows = None if obstacle is None else _obstacle_rows(obstacle, spec.n_states, times,
                                                        first, g)
    if form is None:
        return lambda n, top, start=None: (
            sweep(_callback_step(spec, driver, scheme, times, rows, n), top, times, first,
                  _BLOW_UP)[first], None)
    maps = _implicit_maps(spec, form, times, rows)
    if obstacle is None:
        plain = maps(np.arange(times.size))
        return lambda n, top, start=None: (
            solve_affine(plain, top, times, first, _BLOW_UP), None)

    def level(n, top, start=None):
        table, _, choice, _ = solve_floored(lambda nodes: maps(nodes, n), top, times,
                                            first, _BLOW_UP, start)
        return table[first], choice

    return level


def _obstacle_rows(obstacle, n_states, times, first, g=None):
    """The (len(times), N) rows of ``obstacle`` at the table ``times``: its
    grid sample ``g`` at the nodes times[first], taken here if not given,
    and one sample of the breakpoints between them."""
    rows = np.empty((times.size, n_states))
    rows[first] = obstacle.sample(times[first], n_states) if g is None else g
    off = np.delete(np.arange(times.size), first)
    if off.size:
        rows[off] = obstacle.sample(times[off], n_states)
    return rows


def _implicit_maps(spec, form, times, rows):
    """maps(nodes, n=None): the implicit Euler maps of the affine form on
    each step between the ``nodes`` of the table ``times``, in closed form
    per state. With z frozen at the top value y, a step of length h maps y
    to num / (1 - h alpha), num = y + h ((A' + G) y + beta), the rows
    [P c] of maps(nodes). At a level n, maps(nodes, n) stacks them with
    those of the penalized step (num + h n g) / (1 - h alpha + h n), g the
    obstacle ``rows`` at the bottom time, which the solve takes where
    num / (1 - h alpha) < g: it is the larger of the two there, since it
    averages the plain step with g. Coefficients are those at the bottom
    time; each table step's piece is looked up once, for every level."""
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
    if np.any(1.0 - np.diff(times).max() * alpha <= 0.0):
        raise NonFiniteError("implicit step has a non-positive 1 - h alpha")
    piece = pieces_at(starts, times[:-1])
    n_states = spec.n_states

    def maps(nodes, n=None):
        h = np.diff(times[nodes])[:, None]
        p = piece[nodes[:-1]]
        num = np.empty((p.size, n_states, n_states + 1))
        num[..., :n_states] = np.eye(n_states) + h[:, :, None] * a_g[p]
        num[..., n_states] = h * beta[p]
        den = 1.0 - h * alpha[p]
        if n is None:
            return num / den[:, :, None]
        hn = h * n
        pair = np.stack([num, num])
        pair[1, ..., n_states] += hn * rows[nodes[:-1]]
        pair /= np.stack([den, den + hn])[..., None]
        return pair

    return maps


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


def _callback_step(spec, driver, scheme, times, rows=None, n=0.0):
    """step(s, y) down the table step s from times[s + 1] to times[s], of
    length h = times[s + 1] - times[s], of f = ``driver.evaluate`` under
    the generator of the piece in force at times[s]. The scheme is one RK4
    step ("explicit_rk4"), one implicit Euler step ("implicit_euler"),
    each state by ``_scalar_implicit`` with A'y and z frozen at the top,
    and under the obstacle ``rows`` at level n solved again below its row
    g at times[s], b = y + hA'y and h put to (b + h n g) / (1 + h n) and
    h / (1 + h n) as in ``_implicit_maps``, or the reflected predictor
    ("reflected") v_i - h (-(A'v)_i - f(t, i, v_i, v)) at the bottom time
    t. Each step runs on Python floats and returns its values as a list.

    The RK4 stages k = -A'u - f(t, i, u_i, u) are written out state by
    state, each with the input of the next, and the last with the sum:
    ``chain.rk4_down``'s order, term by term, and so its bits."""
    # transposed views of spec.gens: the layout every A'y product reads
    gens_t = list(spec.gens.transpose(0, 2, 1))
    piece = pieces_at(spec.starts, times[:-1]).tolist()
    lip = driver.lipschitz_y + driver.lipschitz_z + 1.0
    f = driver.evaluate
    at = times.tolist()
    states = range(spec.n_states)
    floors = None if rows is None else rows.tolist()

    def rk4(s, y):
        gen_t = gens_t[piece[s]]
        t_hi, t_lo = at[s + 1], at[s]
        h = t_hi - t_lo
        half = 0.5 * h
        t_mid = t_hi - half
        top = u = y.tolist()
        ks = []
        for t, w in ((t_hi, half), (t_mid, half), (t_mid, h)):
            z = np.array(u)
            k, nxt = [], []
            for i, a, v, v0 in zip(states, gen_t.dot(z).tolist(), u, top):
                k.append(r := -a - float(f(t, i, v, z)))
                nxt.append(v0 - w * r)
            ks.append(k)
            u = nxt
        z = np.array(u)
        c = h / 6.0
        return [v0 - c * (a1 + 2.0 * a2 + 2.0 * a3 + (-a - float(f(t_lo, i, v, z))))
                for i, a, v, v0, a1, a2, a3 in zip(states, gen_t.dot(z).tolist(), u, top, *ks)]

    def implicit(s, y):
        t = at[s]
        h = at[s + 1] - t
        b = [v + h * a for v, a in zip(y.tolist(), gens_t[piece[s]].dot(y).tolist())]
        vs = [_scalar_implicit(f, t, i, b_i, h, y, lip) for i, b_i in zip(states, b)]
        if floors is not None:
            hn = h * n
            for i, v, b_i, g in zip(states, vs, b, floors[s]):
                if v < g:
                    vs[i] = _scalar_implicit(f, t, i, (b_i + hn * g) / (1.0 + hn),
                                             h / (1.0 + hn), y, lip)
        return vs

    def reflected(s, y):
        t = at[s]
        h = at[s + 1] - t
        return [v - h * (-a - float(f(t, i, v, y)))
                for i, a, v in zip(states, gens_t[piece[s]].dot(y).tolist(), y.tolist())]

    return {"explicit_rk4": rk4, "implicit_euler": implicit, "reflected": reflected}[scheme]


def _inputs(spec, terminal, steps):
    """(terminal, grid) of a backward solve, after the checks that every
    solve makes of them: a length-N terminal and at least 2 steps."""
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (spec.n_states,):
        raise ValueError("terminal condition must be a length-N vector")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    return terminal, uniform_grid(spec.horizon, steps)


def _contraction(spec, lipschitz_z, strict_contraction):
    """Warn where a driver of z-Lipschitz constant ``lipschitz_z`` fails
    ``check_contraction``, or raise ``ContractionViolatedError`` if strict."""
    if lipschitz_z > 0:
        report = check_contraction(spec, lipschitz_z)
        if not report["holds"]:
            msg = (f"z-Lipschitz contraction fails, margin "
                   f"{report['worst_margin']:.3g} at {report['worst_time_state']}")
            if strict_contraction:
                raise ContractionViolatedError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=3)


def solve_bsde(spec, driver, terminal, steps, scheme="explicit_rk4",
               strict_contraction=False):
    """Integrate the backward state-space reduction on a uniform grid.

    scheme is "explicit_rk4" (default) or "implicit_euler". The terminal
    node is the given vector exactly; no integration touches it. The steps
    are those of ``_levels`` at n = 0: a driver with an affine form is
    solved on its step maps by ``chain.scan``. A failed ``check_contraction`` warns, or raises
    under ``strict_contraction``.
    """
    terminal, grid = _inputs(spec, terminal, steps)
    if scheme not in ("explicit_rk4", "implicit_euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
    _contraction(spec, driver.lipschitz_z, strict_contraction)
    values, _ = _levels(spec, driver, scheme, grid)(0.0, terminal)
    return BsdeSolution(grid=grid, values=values, scheme=scheme, steps=int(steps))


def _hermite_curve(spec, driver, sol):
    """times -> (len(times), N) values y(t), the cubic Hermite interpolant
    of the grid values with slopes dy/dt = -A'y - f from the reduced ODE,
    f read once per node and state by ``_driver_at``. Each step takes the
    slope at either end under the generator of its own piece there: at a
    breakpoint on a node, the step ending there takes the left limit and
    the step starting there the right limit."""
    grid, vals = sol.grid, sol.values
    steps = grid.size - 1
    dt = (grid[-1] - grid[0]) / steps
    n = vals.shape[1]
    f = _driver_at(driver, np.repeat(grid, n), np.tile(np.arange(n), grid.size),
                   np.repeat(vals, n, axis=0)).reshape(vals.shape)
    gens_t = np.ascontiguousarray(spec.gens.transpose(0, 2, 1))
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
    stretches, read at the grid nodes (``chain.sums_at``); f is read at
    every Simpson point by ``_driver_at``.
    """
    terminal = np.asarray(terminal, dtype=float)
    grid = solution.grid
    curve = _hermite_curve(spec, driver, solution)
    path, t0, t1, state, piece, to = paths.stretches(spec.starts, grid)
    cols = spec.gens[piece, :, state]
    f_int = np.zeros(path.size)
    m_int = np.zeros(path.size)
    for t, weight in ((t0, 1.0), (0.5 * (t0 + t1), 4.0), (t1, 1.0)):
        ys = curve(t)
        f_int += weight * _driver_at(driver, t, state, ys)
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
    quadruples, drawn as four vectors; driver1 must satisfy the
    contraction condition, checked by its ``solve_bsde`` under
    ``strict_contraction``.
    """
    t1 = np.asarray(terminal1, dtype=float)
    t2 = np.asarray(terminal2, dtype=float)
    if np.any(t1 > t2 + 1e-12):
        raise PreconditionUnmetError("terminal conditions are not ordered")
    rng = np.random.default_rng(rng_seed)
    spots = zip(rng.uniform(0.0, spec.horizon, 64).tolist(),
                rng.integers(spec.n_states, size=64).tolist(),
                rng.normal(scale=2.0, size=64).tolist(),
                rng.normal(scale=2.0, size=(64, spec.n_states)))
    for t, i, y, z in spots:
        if float(driver1.evaluate(t, i, y, z)) > float(driver2.evaluate(t, i, y, z)) + 1e-12:
            raise PreconditionUnmetError(
                f"driver ordering fails at t={t:.4g}, state={i}")
    sol1 = solve_bsde(spec, driver1, t1, steps, strict_contraction=True)
    sol2 = solve_bsde(spec, driver2, t2, steps)
    gap = sol1.values - sol2.values
    max_violation = float(gap.max())
    return {"holds": bool(max_violation <= 1e-9),
            "max_violation": max_violation}

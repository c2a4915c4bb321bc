"""Step-at-a-time references for the backward steppers.

These are the steppers the package ran before every backward recursion
shared ``chain.substeps``, ``chain.affine_rk4`` and the one walk
``chain.sweep``, which calls a step once per sub-step of the table: here
each grid step is cut at the breakpoints strictly inside it
(``split_down``) and each sub-step looks up its piece as it goes.
``reduced_rhs`` and ``scalar_implicit`` are the reduced right-hand side
and the one-state implicit solve on numpy arrays and scalars, as the
package ran them before its callback steps moved to Python floats;
``rk4_down`` with a field of ``reduced_rhs`` is the callback RK4 step,
``implicit_step`` the callback implicit Euler step, plain or penalized
(the plain step, solved again below the obstacle), ``rk4_maps`` the RK4
step matrices of a linear equation, and ``linear_implicit`` the
closed-form implicit Euler sweep before it tabled its sub-steps;
``linear_euler`` and
``callback_euler`` are the reflected sweep's predictors of an affine and
a callback driver, and ``penalized_driver`` is the penalized equation's
driver as one callback, the independent formulation of that step.
``bsde_loop``, ``reflected_loop`` and ``stock_loop`` are the hand-written
backward loops of ``solve_bsde``, ``solve_reflected`` and
``stock_curves``, one grid step at a time;
``linear_pieces`` is the merge of the chain's and an affine form's
pieces that the linear steps read. The package's callback steppers do
the same arithmetic in the same order and must reproduce these bit for
bit; its affine solves run on ``chain.scan`` and agree with them to
rounding."""

import math

import numpy as np

from markovbsde.bsde import MarkovDriver
from markovbsde.errors import NonFiniteError

from conftest import piece_of


def reduced_rhs(gen, f, t, y):
    """Right-hand side -(A'y)_i - f(t, i, y_i, y) of the reduced ODE under
    the generator ``gen``, for every state i, on numpy arrays and scalars."""
    at_y = gen.T @ y
    out = np.empty(y.size)
    for i in range(y.size):
        out[i] = -at_y[i] - f(t, i, y[i], y)
    return out


def scalar_implicit(f, t, i, b, dt, zref, lip_hint):
    """Solve v = b + dt * f(t, i, v, zref) for v: Newton with a secant
    slope, bisection fallback, on the numpy scalars it is given. A
    non-finite b is returned as it is, and nan where no root is
    bracketed."""
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


def linear_pieces(spec, form):
    """(starts, a_g, alpha, beta): the sorted starts of the chain's and the
    affine form's pieces merged, and per merged piece A' + G (C order, as
    the implicit steps' matrix-vector products read it), alpha and beta,
    each looked up at the piece's start."""
    starts = sorted(set(spec.starts) | set(form.starts))
    n = spec.n_states
    shape = (len(form.starts), n)
    alpha = np.broadcast_to(form.alpha, shape)
    gz = np.broadcast_to(form.gz, shape + (n,))
    beta = np.broadcast_to(form.beta, shape)
    forms = [piece_of(form.starts, t) for t in starts]
    a_g = np.array([spec.gens[piece_of(spec.starts, t)].T + gz[k]
                    for t, k in zip(starts, forms)])
    return starts, a_g, alpha[forms], beta[forms]


def split_down(breakpoints, t_lo, t_hi):
    """[t_lo, t_hi] cut at the sorted ``breakpoints`` strictly inside it:
    the ends of its constant-piece sub-steps, in decreasing time."""
    return [t_hi, *[b for b in reversed(breakpoints) if t_lo < b < t_hi], t_lo]


def rk4_down(breakpoints, t_hi, t_lo, y, field):
    """One classical RK4 step of dy/dt = f(t, y) backward from t_hi to t_lo
    for piecewise-constant coefficients: the step is cut by ``split_down``,
    and each sub-step integrates ``field(t_mid)``, the f of the piece that
    holds the sub-step's midpoint t_mid."""
    cuts = split_down(breakpoints, t_lo, t_hi)
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = a - b
        f = field(0.5 * (a + b))
        k1 = f(a, y)
        k2 = f(a - 0.5 * h, y - 0.5 * h * k1)
        k3 = f(a - 0.5 * h, y - 0.5 * h * k2)
        k4 = f(b, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_maps(starts, mats, grid):
    """The RK4 steps of z' = -L z down the uniform ``grid`` as matrices,
    for L = mats[p] on the piece p that starts at starts[p]: the step from
    grid[k + 1] to grid[k] is z -> maps[which[k]] @ z. Each map is
    ``rk4_down`` run on the identity; the steps inside one piece share its
    map, and a step that holds a breakpoint has its own."""
    breaks = list(starts[1:])
    eye = np.eye(mats.shape[-1])

    def field(t_mid):
        m = mats[piece_of(starts, t_mid)]
        return lambda t, z: -(m @ z)

    lo, hi = grid[:-1], grid[1:]
    piece = np.array([piece_of(starts, t) for t in lo])
    cut = np.searchsorted(breaks, hi) > np.searchsorted(breaks, lo, side="right")
    which = np.where(cut, len(starts) + np.cumsum(cut) - 1, piece)
    maps = []
    for m in range(len(starts) + np.count_nonzero(cut)):
        k = np.flatnonzero(which == m)[:1]  # a piece may hold no whole step
        maps.append(rk4_down(breaks, hi[k[0]], lo[k[0]], eye, field) if k.size else eye)
    return np.array(maps), which


def implicit_step(spec, driver, t_hi, t_lo, y, obstacle=None, level=0.0):
    """The callback implicit Euler step from t_hi down to t_lo. With an
    ``obstacle``, the step of f + level (g - y)^+: each state whose plain
    value lies below g at the sub-step's bottom time is solved again on f
    with b and dt put to (b + dt level g) / (1 + dt level) and
    dt / (1 + dt level)."""
    cuts = split_down(spec.breakpoints(), t_lo, t_hi)
    n = y.size
    lip = driver.lipschitz_y + driver.lipschitz_z + 1.0
    for a_t, b_t in zip(cuts[:-1], cuts[1:]):
        dt = a_t - b_t
        gen = spec.gens[piece_of(spec.starts, 0.5 * (a_t + b_t))]
        b = y + dt * (gen.T @ y)
        new = np.empty(n)
        for i in range(n):
            new[i] = scalar_implicit(driver.evaluate, b_t, i, b[i], dt, y, lip)
            if obstacle is not None and new[i] < (g := obstacle.g(b_t, i)):
                hn = dt * level
                new[i] = scalar_implicit(driver.evaluate, b_t, i, (b[i] + hn * g) / (1.0 + hn),
                                         dt / (1.0 + hn), y, lip)
        y = new
    return y


def callback_step(spec, driver, scheme, grid, obstacle=None, level=0.0):
    """step(k, y): the callback RK4 or implicit Euler step of ``driver``
    from grid[k + 1] down to grid[k], the latter penalized at ``level``
    under an ``obstacle``."""
    def field(t_mid):
        gen = spec.gens[piece_of(spec.starts, t_mid)]
        return lambda t, y: reduced_rhs(gen, driver.evaluate, t, y)

    if scheme == "explicit_rk4":
        return lambda k, y: rk4_down(spec.breakpoints(), grid[k + 1], grid[k], y, field)
    return lambda k, y: implicit_step(spec, driver, grid[k + 1], grid[k], y, obstacle, level)


def linear_rk4(spec, form, grid):
    """step(k, y): the RK4 step of the affine form, one ``rk4_maps``
    matrix acting on [y; 1]."""
    starts, a_g, alpha, beta = linear_pieces(spec, form)
    n = spec.n_states
    aug = np.zeros((len(starts), n + 1, n + 1))
    aug[:, :n, :n] = a_g + alpha[:, :, None] * np.eye(n)
    aug[:, :n, n] = beta
    maps, which = rk4_maps(starts, aug, grid)
    p, c = maps[:, :n, :n], maps[:, :n, n]
    return lambda k, y: p[which[k]] @ y + c[which[k]]


def linear_euler(spec, form, grid):
    """step(k, v): the reflected sweep's predictor of the affine form from
    grid[k + 1] down to grid[k], v + h ((A' + G + diag alpha) v + beta)
    under the piece in force at grid[k], not cut at a breakpoint, with
    h = grid[k + 1] - grid[k]."""
    starts, a_g, alpha, beta = linear_pieces(spec, form)

    def step(k, v):
        h = grid[k + 1] - grid[k]
        p = piece_of(starts, grid[k])
        return v + h * (a_g[p] @ v + alpha[p] * v + beta[p])

    return step


def callback_euler(spec, driver, grid):
    """step(k, v): the reflected sweep's predictor of a callback driver from
    grid[k + 1] down to grid[k], v - h * reduced_rhs, under the generator
    in force at grid[k], not cut at a breakpoint, with h = grid[k + 1] -
    grid[k]."""
    def step(k, v):
        h = grid[k + 1] - grid[k]
        gen = spec.gens[piece_of(spec.starts, grid[k])]
        return v - h * reduced_rhs(gen, driver.evaluate, grid[k], v)

    return step


def stock_loop(market, grid, seed):
    """The (K+1, N, stocks) stock curves down ``grid`` from ``seed``, the
    RK4 step matrices of S' = -Gamma' S - deltas acting on [S; I]."""
    n, m = market.chain.n_states, market.n_stocks
    deltas = np.reshape(market.dividends, (m, n)).T
    aug = np.zeros((len(market.piece_starts), n + m, n + m))
    aug[:, :n, :n] = market.gamma.transpose(0, 2, 1)
    aug[:, :n, n:] = deltas
    maps, which = rk4_maps(market.piece_starts, aug, grid)
    p, c = maps[:, :n, :n], maps[:, :n, n:]
    curves = np.empty((grid.size, n, m))
    curves[-1] = s = seed
    for k in range(grid.size - 2, -1, -1):
        s = p[which[k]] @ s + c[which[k]]
        curves[k] = s
    return curves


def bsde_loop(step, terminal, grid):
    """The solve_bsde loop: a finiteness check after every step."""
    values = np.empty((grid.size, terminal.size))
    values[-1] = terminal
    for k in range(grid.size - 2, -1, -1):
        values[k] = step(k, values[k + 1])
        if not np.isfinite(values[k]).all():
            raise NonFiniteError(f"driver blow-up at t={grid[k]:.6g}")
    return values


def reflected_loop(predict, terminal, obstacle_vals, grid):
    """The reflected loop: (values, pushes) of the predictor raised to the
    obstacle at every node."""
    vals = np.empty((grid.size, terminal.size))
    preds = np.empty((grid.size - 1, terminal.size))
    vals[-1] = terminal
    for k in range(grid.size - 2, -1, -1):
        preds[k] = predict(k, vals[k + 1])
        np.maximum(obstacle_vals[k], preds[k], out=vals[k])
    return vals, vals[:-1] - preds


def penalized_driver(driver, obstacle, n):
    """f + n (g - y)^+ as a callback driver without an affine form, its
    y-Lipschitz constant raised by n."""
    base, g, n = driver.evaluate, obstacle.g, float(n)

    def evaluate(t, i, y, z):
        return base(t, i, y, z) + n * max(g(t, i) - y, 0.0)

    return MarkovDriver(evaluate=evaluate, lipschitz_y=driver.lipschitz_y + n,
                        lipschitz_z=driver.lipschitz_z)


def linear_implicit(spec, form, grid, obstacle=None, n=0.0):
    """step(k, y): the implicit Euler step of the affine form ``form``, with
    the penalty of ``obstacle`` at level n, from grid[k + 1] down to
    grid[k], one sub-step at a time."""
    starts, a_g, alpha, beta = linear_pieces(spec, form)
    if obstacle is not None:
        g_grid = obstacle.sample(grid, spec.n_states)

    def step(k, y):
        cuts = split_down(spec.breakpoints(), grid[k], grid[k + 1])
        for a_t, b_t in zip(cuts[:-1], cuts[1:]):
            h = a_t - b_t
            p = piece_of(starts, b_t)
            num = y + h * (a_g[p] @ y + beta[p])
            den = 1.0 - h * alpha[p]
            y = num / den
            if obstacle is not None:
                if b_t == grid[k]:
                    g = g_grid[k]
                else:
                    g = obstacle.sample([b_t], y.size)[0]
                y = np.where(y < g, (num + h * n * g) / (den + h * n), y)
        return y

    return step

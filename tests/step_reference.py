"""Step-at-a-time references for the backward steppers.

These are the steppers the package ran before every backward recursion
shared ``chain.substeps``, ``chain.affine_rk4`` and ``chain.sweep``: each
step is cut at the breakpoints strictly inside it (``split_down``) and
each sub-step looks up its piece as it goes. ``rk4_down`` with a field is
the callback RK4 step, ``implicit_step`` the callback implicit Euler
step, ``rk4_maps`` the RK4 step matrices of a linear equation, and
``linear_implicit`` the closed-form implicit Euler sweep before it tabled
its sub-steps, ``linear_euler`` the affine predictor of the reflected
sweep; ``penalized_driver`` is the penalized equation's driver as one
callback. ``bsde_loop``, ``reflected_loop`` and ``stock_loop`` are
the hand-written backward loops of ``solve_bsde``, ``_reflected_sweep``
and ``stock_curves``. The package's callback steppers do the same
arithmetic in the same order and must reproduce these bit for bit; its
affine solves run on ``chain.scan`` and agree with them to rounding.
"""

import numpy as np

from markovbsde.bsde import MarkovDriver, _linear_pieces, _rhs, _scalar_implicit
from markovbsde.chain import pieces_at
from markovbsde.errors import NonFiniteError

from conftest import piece_of


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
    piece = pieces_at(starts, lo)
    cut = np.searchsorted(breaks, hi) > np.searchsorted(breaks, lo, side="right")
    which = np.where(cut, len(starts) + np.cumsum(cut) - 1, piece)
    maps = []
    for m in range(len(starts) + np.count_nonzero(cut)):
        k = np.flatnonzero(which == m)[:1]  # a piece may hold no whole step
        maps.append(rk4_down(breaks, hi[k[0]], lo[k[0]], eye, field) if k.size else eye)
    return np.array(maps), which


def implicit_step(spec, driver, t_hi, t_lo, y):
    """The callback implicit Euler step from t_hi down to t_lo."""
    cuts = split_down(spec.breakpoints(), t_lo, t_hi)
    n = y.size
    lip = driver.lipschitz_y + driver.lipschitz_z + 1.0
    for a_t, b_t in zip(cuts[:-1], cuts[1:]):
        dt = a_t - b_t
        gen = spec.gens[piece_of(spec.starts, 0.5 * (a_t + b_t))]
        b = y + dt * (gen.T @ y)
        new = np.empty(n)
        for i in range(n):
            new[i] = _scalar_implicit(driver.evaluate, b_t, i, b[i], dt, y, lip)
        y = new
    return y


def callback_step(spec, driver, scheme, grid):
    """step(k, y): the callback RK4 or implicit Euler step of ``driver``
    from grid[k + 1] down to grid[k]."""
    def field(t_mid):
        gen = spec.gens[piece_of(spec.starts, t_mid)]
        return lambda t, y: _rhs(gen, driver.evaluate, t, y)

    if scheme == "explicit_rk4":
        return lambda k, y: rk4_down(spec.breakpoints(), grid[k + 1], grid[k], y, field)
    return lambda k, y: implicit_step(spec, driver, grid[k + 1], grid[k], y)


def linear_rk4(spec, form, grid):
    """step(k, y): the RK4 step of the affine form, one ``rk4_maps``
    matrix acting on [y; 1]."""
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
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
    under the piece in force at grid[k], not cut at a breakpoint."""
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
    h = grid[1] - grid[0]

    def step(k, v):
        p = piece_of(starts, grid[k])
        return v + h * (a_g[p] @ v + alpha[p] * v + beta[p])

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
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
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

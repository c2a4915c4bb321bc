"""Per-path reference loops for the batched path functionals.

These are the one-path-at-a-time walks (and the one-node-at-a-time
discounted driver table) the package ran before its Monte Carlo
functionals became array operations over a ``PathBatch``. The
batched code must reproduce them bit for bit: every sum here runs left to
right in the same term order, and the trapezoid of
``discounted_value_check`` is one ``np.sum`` per path. Each path is
given as raw arrays: its jump times and the states it visits; the checks
take the batch of paths the package drew and walk it path by path
(``path_of``).

The pathwise residuals, their one-step-at-a-time Hermite curve and the
scalar linear interpolation are the loops the package ran before they too
became array work; the batched residuals sum in another order and must
equal them to rounding.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from markovbsde import PathBatch, seminorm_sq, simulate_path
from markovbsde.bsde import _rhs
from markovbsde.chain import piece_index
from markovbsde.grids import sample_on_grid, uniform_grid

from step_reference import split_down


def batch_of(paths, horizon=1.0):
    """The paths, each given as (jump times, states), as one PathBatch."""
    return PathBatch(offsets=np.cumsum([0] + [len(times) for times, _ in paths]),
                     jump_times=np.concatenate([times for times, _ in paths]),
                     states=np.concatenate([states for _, states in paths]),
                     horizon=horizon, seeds=range(len(paths)))


def path_of(batch, p):
    """Path p of the batch as (jump times, states)."""
    a, b = batch.offsets[p], batch.offsets[p + 1]
    return batch.jump_times[a:b], batch.states[a + p:b + p + 1]


def draw(spec, seed):
    """The path of ``seed`` as (jump times, states)."""
    return path_of(simulate_path(spec, seed), 0)


def states_at(times, states, grid):
    """States occupied at the sorted ``grid`` times (right-continuous)."""
    return np.asarray(states)[np.searchsorted(times, grid, side="right")]


def stretches(times, states, horizon, cuts, starts):
    """(t0, t1, state, piece, to) stretches of one path, in time order; to
    is -1 where no jump ends the stretch."""
    edges = [0.0, *np.asarray(times, dtype=float).tolist(), horizon]
    states = np.asarray(states).tolist()
    targets = [*states[1:], -1]
    for t0, t1, state, to in zip(edges[:-1], edges[1:], states, targets):
        if t1 <= t0:  # a jump at the horizon
            continue
        inner = cuts[bisect_right(cuts, t0):bisect_left(cuts, t1)]
        for a, b in zip([t0, *inner], [*inner, t1]):
            yield a, b, state, piece_index(starts, a), to if b == t1 else -1


def stochastic_integral(spec, z, times, states):
    z = np.asarray(z, dtype=float)
    total = 0.0
    for idx in range(len(times)):
        old, new = int(states[idx]), int(states[idx + 1])
        total += z[new] - z[old]
    for t0, t1, state, piece, _ in stretches(times, states, spec.horizon,
                                             spec.breakpoints(), spec.starts):
        total -= float(z @ spec.schedule[piece][1][:, state]) * (t1 - t0)
    return total


def seminorm_time_integral(spec, z, times, states):
    total = 0.0
    for t0, t1, state, piece, _ in stretches(times, states, spec.horizon,
                                             spec.breakpoints(), spec.starts):
        total += seminorm_sq(z, spec.psi[piece][state]) * (t1 - t0)
    return total


def terminal_sdf(market, times, states):
    acc = 0.0
    for t0, t1, state, piece, _ in stretches(times, states, market.chain.horizon,
                                             market.breakpoints(), market.piece_starts):
        acc -= market.pieces[piece].d[state] * (t1 - t0)
    for idx, t in enumerate(times):
        old, new = int(states[idx]), int(states[idx + 1])
        acc += market.piece_at(t).log_jump[old, new]
    return float(np.exp(acc))


def sdf_path(market, times, states, grid):
    walk = list(stretches(times, states, market.chain.horizon, market.breakpoints(),
                          market.piece_starts))
    events = np.array([0.0] + [t1 for _, t1, _, _, _ in walk])
    log_after = np.zeros(events.size)
    slopes = np.zeros(events.size - 1)
    acc = 0.0
    for k, (t0, t1, state, piece, to) in enumerate(walk):
        slope = -float(market.pieces[piece].d[state])
        slopes[k] = slope
        acc += slope * (t1 - t0)
        if to >= 0:
            acc += market.piece_at(t1).log_jump[state, to]
        log_after[k + 1] = acc
    pos = np.searchsorted(events, grid, side="right") - 1
    at_end = pos >= events.size - 1
    pos = np.minimum(pos, events.size - 2)
    log_pi = log_after[pos] + slopes[pos] * (grid - events[pos])
    log_pi[at_end] = log_after[-1]
    return np.exp(log_pi)


def isometry_check(spec, z, paths):
    z = np.asarray(z, dtype=float)
    n_paths = paths.n_paths
    lhs = np.empty(n_paths)
    rhs = np.empty(n_paths)
    for p in range(n_paths):
        path = path_of(paths, p)
        lhs[p] = stochastic_integral(spec, z, *path) ** 2
        rhs[p] = seminorm_time_integral(spec, z, *path)
    diff = lhs - rhs
    se = float(diff.std(ddof=1) / np.sqrt(n_paths))
    passed = abs(float(diff.mean())) <= 3.0 * se + 1e-12
    return {"lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
            "diff": float(diff.mean()), "std_error": se,
            "pass": bool(passed), "n_paths": int(n_paths)}


def european_samples(market, claim, paths):
    """The per-path deflated claims of ``european_consistency``."""
    samples = np.empty(paths.n_paths)
    for p in range(paths.n_paths):
        times, states = path_of(paths, p)
        samples[p] = terminal_sdf(market, times, states) * claim[states[-1]]
    return samples


def discounted_h_matrix(market, solution):
    grid = solution.grid
    n = market.chain.n_states
    z = solution.values
    out = np.empty((grid.size, n))
    for k, t in enumerate(grid):
        piece = market.piece_at(t)
        a, sig = piece.a, piece.sigma
        zv = z[k]
        lin = piece.drift @ zv
        for i in range(n):
            r = float(piece.rates[i])
            cross = float(np.sum(a[:, i] * sig[i, :] * (zv - zv[i])))
            out[k, i] = -r * zv[i] + float(lin[i]) - cross
    return out


def discounted_value_check(market, payoff, solution, paths):
    n_paths = paths.n_paths
    grid = solution.grid
    steps = grid.size - 1
    dt = grid[1] - grid[0]
    n = market.chain.n_states
    h_mat = discounted_h_matrix(market, solution)
    g_mat = sample_on_grid(payoff.g, grid, n)
    v = solution.values
    idx = np.arange(grid.size)
    samples = np.empty(n_paths)
    domination_ok = True
    for p in range(n_paths):
        times, path_states = path_of(paths, p)
        pi = sdf_path(market, times, path_states, grid)
        states = states_at(times, path_states, grid)
        v_path = v[idx, states]
        g_path = g_mat[idx, states]
        if np.any(pi * v_path < pi * g_path - 1e-9):
            domination_ok = False
        touch = np.nonzero(v_path <= g_path + 1e-9)[0]
        stop = int(touch[0]) if touch.size else steps
        seg = (pi * h_mat[idx, states])[: stop + 1]
        integral = float(np.sum(0.5 * (seg[:-1] + seg[1:])) * dt)
        samples[p] = integral + pi[stop] * g_path[stop]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    target = float(v[0, market.chain.initial_state])
    passed = abs(mean - target) <= 3.0 * se + 1e-12
    return {"mc_value": mean, "std_error": se, "solver_value": target,
            "pass": bool(passed), "dominates": domination_ok,
            "n_paths": int(n_paths)}


def interp_at(grid, values, t):
    """The rows of ``values`` on the uniform ``grid`` interpolated linearly
    at the one time t, the first and last row outside the grid."""
    t = float(t)
    if t <= grid[0]:
        return values[0].copy()
    if t >= grid[-1]:
        return values[-1].copy()
    n_steps = grid.size - 1
    x = (t - grid[0]) / ((grid[-1] - grid[0]) / n_steps)
    k = min(int(x), n_steps - 1)
    w = x - k
    return (1.0 - w) * values[k] + w * values[k + 1]


def hermite_curve(spec, driver, sol):
    """t -> y(t), the cubic Hermite interpolant of the grid values, with
    each step's end slopes from ``_rhs`` under the generator of the step's
    own piece at that end."""
    grid, vals = sol.grid, sol.values
    dt = (grid[-1] - grid[0]) / (grid.size - 1)
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


def _nodes_after(grid, walk):
    """For each stretch of ``walk``, the grid nodes past 0 read after it:
    those at or below its end that no earlier stretch read."""
    gi = 1
    for stretch in walk:
        first = gi
        while gi < grid.size and grid[gi] <= stretch[1] + 1e-15:
            gi += 1
        yield stretch, range(first, gi)


def pathwise_residual(solution, spec, driver, terminal, times, states):
    grid = solution.grid
    curve = hermite_curve(spec, driver, solution)

    def f_at(t, i):
        y = curve(t)
        return driver.evaluate(t, i, y[i], y)

    def simpson(fn, a, b):
        return (b - a) / 6.0 * (fn(a) + 4.0 * fn(0.5 * (a + b)) + fn(b))

    f_cum = np.zeros(grid.size)
    m_cum = np.zeros(grid.size)
    f_int = m_int = 0.0
    cuts = sorted(set(grid.tolist()) | set(spec.breakpoints()))
    walk = stretches(times, states, spec.horizon, cuts, spec.starts)
    for (t0, t1, i, piece, to), nodes in _nodes_after(grid, walk):
        col = spec.schedule[piece][1][:, i]
        f_int += simpson(lambda t: f_at(t, i), t0, t1)
        m_int -= simpson(lambda t: float(curve(t) @ col), t0, t1)
        if to >= 0:
            yj = curve(t1)
            m_int += float(yj[to] - yj[i])
        for gi in nodes:
            f_cum[gi], m_cum[gi] = f_int, m_int
    at = states_at(times, states, grid)
    rhs = terminal[at[-1]] + (f_cum[-1] - f_cum) - (m_cum[-1] - m_cum)
    return np.abs(solution.values[np.arange(grid.size), at] - rhs).max()


def sdf_dynamics_residual(market, grid_steps, times, states):
    grid = uniform_grid(market.chain.horizon, grid_steps)
    closed = sdf_path(market, times, states, grid)
    cuts = sorted(set(grid.tolist()) | set(market.breakpoints()))
    walk = stretches(times, states, market.chain.horizon, cuts, market.piece_starts)
    pi, worst = 1.0, 0.0
    for (t0, t1, state, k, to), nodes in _nodes_after(grid, walk):
        dt = t1 - t0
        piece = market.pieces[k]
        r = float(piece.rates[state])
        comp = float(piece.sigma[state, :] @ piece.a[:, state])
        pi = pi * np.exp(-r * dt) - pi * comp * dt
        if to >= 0:
            pi += pi * market.piece_at(t1).sigma[state, to]
        for gi in nodes:
            worst = max(worst, abs(pi - closed[gi]))
    return worst


def stock_sde_residual(market, curves, grid_steps, times, states):
    grid = uniform_grid(market.chain.horizon, grid_steps)
    cuts = sorted(set(grid.tolist()) | set(market.breakpoints()))
    walk = list(stretches(times, states, market.chain.horizon, cuts,
                          market.piece_starts))
    at = states_at(times, states, grid)
    worst = 0.0
    for s, delta in zip(curves.s, market.dividends):
        val = interp_at(curves.grid, s, 0.0)[at[0]]
        for (t0, t1, state, k, to), nodes in _nodes_after(grid, walk):
            piece = market.pieces[k]
            s_vec = interp_at(curves.grid, s, t0)
            drift = float((piece.drift @ s_vec)[state] - delta[state])
            comp = float(s_vec @ piece.a[:, state])
            val += (drift - comp) * (t1 - t0)
            if to >= 0:
                sv = interp_at(curves.grid, s, t1)
                val += float(sv[to] - sv[state])
            for gi in nodes:
                worst = max(worst, abs(val - interp_at(curves.grid, s, grid[gi])[at[gi]]))
    return worst

"""Per-path reference loops for the batched path functionals.

These are the one-path-at-a-time walks (and the one-node-at-a-time
discounted driver table) the package ran before its Monte Carlo
functionals became array operations over a ``PathBatch``. The
batched code must reproduce them bit for bit: every sum here runs left to
right in the same term order, and the trapezoid of
``discounted_value_check`` is one ``np.sum`` per path. Each path is
given as raw arrays: its jump times and the states it visits.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from markovbsde import PathBatch, seminorm_sq, simulate_path
from markovbsde.chain import piece_index
from markovbsde.grids import sample_on_grid


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


def isometry_check(spec, z, n_paths, seed_base=0):
    z = np.asarray(z, dtype=float)
    lhs = np.empty(n_paths)
    rhs = np.empty(n_paths)
    for p in range(n_paths):
        path = draw(spec, seed_base + p)
        lhs[p] = stochastic_integral(spec, z, *path) ** 2
        rhs[p] = seminorm_time_integral(spec, z, *path)
    diff = lhs - rhs
    se = float(diff.std(ddof=1) / np.sqrt(n_paths))
    passed = abs(float(diff.mean())) <= 3.0 * se + 1e-12
    return {"lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
            "diff": float(diff.mean()), "std_error": se,
            "pass": bool(passed), "n_paths": int(n_paths)}


def european_samples(market, claim, n_paths, seed_base=0):
    """The per-path deflated claims of ``european_consistency``."""
    samples = np.empty(n_paths)
    for p in range(n_paths):
        times, states = draw(market.chain, seed_base + p)
        samples[p] = terminal_sdf(market, times, states) * claim[states[-1]]
    return samples


def discounted_h_matrix(market, solution):
    grid = solution.grid
    n = market.chain.n_states
    z = solution.z.values
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


def discounted_value_check(market, payoff, solution, n_paths, seed_base=0):
    grid = solution.grid
    steps = grid.size - 1
    dt = grid[1] - grid[0]
    n = market.chain.n_states
    h_mat = discounted_h_matrix(market, solution)
    g_mat = sample_on_grid(payoff.g, grid, n)
    v = solution.v.values
    idx = np.arange(grid.size)
    samples = np.empty(n_paths)
    domination_ok = True
    for p in range(n_paths):
        times, path_states = draw(market.chain, seed_base + p)
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

"""Exact reference solutions, derived apart from the markovbsde package.

Every function here works from the model's equations on plain numpy data,
per piece of a piecewise-constant schedule, with ``scipy.linalg.expm`` for
the matrix exponentials. Nothing imports markovbsde, so a check against
these references never compares the package with itself.

Conventions match the package: a generator ``A`` acts on indicator
columns, ``A[i, j]`` is the rate of jumping j -> i and its columns sum to
zero. A schedule is a list of piece start times (the first is 0) and one
value per piece; piece k is in force on [starts[k], starts[k + 1]).

With a Markovian driver the BSDE reduces to ``y' = -M(t) y`` on the state
vector (augmented by a constant 1 when the driver has a constant term), so
one exact backward propagator serves every linear driver:

* discount rate r    M = A' - r I
* affine a + b y     M = [[A' + b I, a], [0, 0]] acting on [y; 1]
* pricing (hedge)    M = Gamma'  (the -r v + r z_i terms cancel at z = y)
"""

import numpy as np


def expm(m):
    # scipy is imported on first use, after the timed cycles, so that the
    # benchmark's own references add nothing to the measured memory
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(m)


def piece_at(starts, t):
    """Index of the piece in force at t (pieces are right-continuous)."""
    return max(i for i, s in enumerate(starts) if s <= t)


def piece_cuts(starts, t_lo, t_hi):
    """(a, b, k) sub-intervals of [t_lo, t_hi] on which piece k is in force,
    in increasing time."""
    cuts = [t_lo] + [s for s in starts if t_lo < s < t_hi] + [t_hi]
    return [(a, b, piece_at(starts, a)) for a, b in zip(cuts[:-1], cuts[1:])]


def merge_schedules(*schedules):
    """Common refinement of several (starts, values) schedules: the union of
    the start times, and for each piece the tuple of values in force."""
    starts = sorted({float(s) for st, _ in schedules for s in st})
    return starts, [tuple(vals[piece_at(st, t)] for st, vals in schedules)
                    for t in starts]


class Propagator:
    """Exact backward propagators of y' = -M(t) y for piecewise-constant M.

    ``step(t_lo, t_hi)`` returns P with y(t_lo) = P y(t_hi), the product
    of expm(M_k (b - a)) over the pieces met. Exponentials are cached per
    (piece, length), so a uniform grid costs a few expm calls per piece.
    """

    def __init__(self, starts, mats):
        self.starts = [float(s) for s in starts]
        self.mats = [np.asarray(m, dtype=float) for m in mats]
        self._cache = {}

    def exp(self, k, h):
        """expm(M_k h), cached."""
        key = (k, round(h, 14))
        if key not in self._cache:
            self._cache[key] = expm(self.mats[k] * h)
        return self._cache[key]

    def step(self, t_lo, t_hi):
        n = self.mats[0].shape[0]
        out = np.eye(n)
        for a, b, k in piece_cuts(self.starts, t_lo, t_hi):
            out = out @ self.exp(k, b - a)
        return out


def linear_bsde(grid, starts, mats, terminal):
    """Exact values of y' = -M(t) y, y(T) = terminal, at every grid node."""
    prop = Propagator(starts, mats)
    vals = np.empty((grid.size, len(terminal)))
    vals[-1] = terminal
    for k in range(grid.size - 2, -1, -1):
        vals[k] = prop.step(grid[k], grid[k + 1]) @ vals[k + 1]
    return vals


def bermudan(grid, starts, mats, terminal, obstacle, n_states):
    """Bermudan dynamic program on the grid with the exact continuation
    operator: v_K = terminal, v_k = max(g_k, P_k v_{k+1}) where P_k is the
    exact propagator over [t_k, t_{k+1}]. ``mats`` may be augmented; the
    obstacle applies to the first n_states components."""
    prop = Propagator(starts, mats)
    vals = np.empty((grid.size, len(terminal)))
    vals[-1] = terminal
    for k in range(grid.size - 2, -1, -1):
        cont = prop.step(grid[k], grid[k + 1]) @ vals[k + 1]
        cont[:n_states] = np.maximum(obstacle[k], cont[:n_states])
        vals[k] = cont
    return vals[:, :n_states]


def bsde_matrix(a, driver):
    """The matrix M of y' = -M y for a generator piece and a linear driver.

    ``driver`` is ("discount", r), ("affine", a_vec, b) or ("pricing",
    gamma). Affine drivers give the augmented (N+1)x(N+1) form.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    kind = driver[0]
    if kind == "discount":
        return a.T - driver[1] * np.eye(n)
    if kind == "affine":
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] = a.T + driver[2] * np.eye(n)
        out[:n, n] = driver[1]
        return out
    if kind == "pricing":
        return np.asarray(driver[1], dtype=float).T.copy()
    raise ValueError(f"unknown driver {kind!r}")


def augment(terminal, driver):
    """Terminal vector in the coordinates bsde_matrix uses."""
    terminal = np.asarray(terminal, dtype=float)
    if driver[0] == "affine":
        return np.append(terminal, 1.0)
    return terminal


def gamma(a, c, d):
    """Risk-adjusted rate matrix: off-diagonal A_ij exp(C_jj - C_ji),
    diagonal A_ii - D_i."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a.shape[0]
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = a[i, j] * np.exp(c[j, j] - c[j, i])
        g[i, i] = a[i, i] - d[i]
    return g


def stock_curves(grid, starts, gammas, delta):
    """Exact stock components s(t) of s' = -Gamma' s - delta.

    s(T) is the stationary point s* = -(Gamma_last')^{-1} delta of the last
    piece; on piece k, s(t) = s*_k + e^{Gamma_k'(b - t)} (s(b) - s*_k) with
    b the right end of the step (or of the piece).
    """
    delta = np.asarray(delta, dtype=float)
    stars = [np.linalg.solve(np.asarray(g).T, -delta) for g in gammas]
    prop = Propagator(starts, [np.asarray(g).T for g in gammas])
    out = np.empty((grid.size, delta.size))
    out[-1] = stars[-1]
    for k in range(grid.size - 2, -1, -1):
        s = out[k + 1]
        for a, b, p in reversed(piece_cuts(starts, grid[k], grid[k + 1])):
            s = stars[p] + prop.exp(p, b - a) @ (s - stars[p])
        out[k] = s
    return out


def occupation(starts, gens, horizon, x0):
    """Per piece, the integral over the piece of the state law P(X_u = .),
    from d/du [p; q] = [[A, 0], [I, 0]] [p; q]."""
    n = np.asarray(gens[0]).shape[0]
    p = np.zeros(n)
    p[x0] = 1.0
    out = []
    edges = list(starts) + [horizon]
    for k, a in enumerate(gens):
        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = a
        big[n:, :n] = np.eye(n)
        e = expm(big * (edges[k + 1] - edges[k]))
        out.append(e[n:, :n] @ p)
        p = e[:n, :n] @ p
    return out


def isometry_expectation(starts, gens, horizon, x0, z):
    """E int_0^T ||z||^2_{X_u} du = int sum_i P(X_u = i) z' Psi_i z du,
    where z' Psi_i z = sum_j A_ji (z_j - z_i)^2 is the jump variance out
    of state i. Also returns the largest z' Psi_i z met."""
    z = np.asarray(z, dtype=float)
    total = 0.0
    top = 0.0
    for a, q in zip(gens, occupation(starts, gens, horizon, x0)):
        a = np.asarray(a, dtype=float)
        var = np.array([sum(a[j, i] * (z[j] - z[i]) ** 2
                            for j in range(len(z)) if j != i)
                        for i in range(len(z))])
        total += float(var @ q)
        top = max(top, float(var.max()))
    return total, top


def first_order_tol(grid, starts, mats, values):
    """Stated O(dt) tolerance of a first-order scheme against an exact or
    Bermudan reference trajectory ``values`` ((K+1) rows, in the
    coordinates of ``mats``; the trailing constant 1 of the affine form may
    be left off).

    The local error of one explicit Euler step with the matrix in force at
    the step's left node, ||(P_k - I - dt M(t_k)) y(t_{k+1})||, is summed
    over the steps (O(dt^2) each, so O(dt) in all; a breakpoint inside a
    step adds its one-step mismatch), grown by e^{mu T} with mu the largest
    logarithmic infinity-norm of M (floored at 0), and doubled, which also
    covers implicit Euler's local error of the same order; 1e-12 of the
    solution's size is added for rounding. The tolerance never exceeds the
    solution's own size, so that an unstable (stiff) solve cannot pass on a
    vacuous bound.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    vals = np.asarray(values, dtype=float)
    dim = mats[0].shape[0]
    if vals.shape[1] < dim:
        vals = np.hstack([vals, np.ones((vals.shape[0], dim - vals.shape[1]))])
    prop = Propagator(starts, mats)
    dt = float(grid[1] - grid[0])
    local = 0.0
    for k in range(grid.size - 1):
        y = vals[k + 1]
        euler = y + dt * (mats[piece_at(starts, grid[k])] @ y)
        local += float(np.abs(prop.step(grid[k], grid[k + 1]) @ y - euler).max())
    mu = max(0.0, max(float(np.max(np.diag(m) + np.abs(m).sum(axis=1)
                                   - np.abs(np.diag(m)))) for m in mats))
    horizon = float(grid[-1] - grid[0])
    scale = max(1.0, float(np.abs(values).max()))
    return min(2.0 * np.exp(mu * horizon) * local + 1e-12 * scale, scale)

"""The Markov-chain market: stochastic discount function, its sigma and
Gamma matrices, the short rate, stock-price curves from the dividend ODE
and pathwise consistency checks of their dynamics.
"""

from dataclasses import dataclass, field

import numpy as np

from .chain import (ChainSpec, affine_rk4, counts_at, dots, freeze_schedule, path_sums,
                    pieces_at, solve_affine, sums_at)
from .errors import (BadScheduleError, NonPositivePricesError,
                     RateBoundViolatedError, UnstableGammaError)
from .grids import interp, uniform_grid


def _check_discount(value, shape, what):
    """Value check of the C and D schedules: the shape, and finite entries."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise BadScheduleError(f"{what} piece has shape {arr.shape}, want {shape}")
    if not np.all(np.isfinite(arr)):
        raise BadScheduleError(f"{what} piece has non-finite entries")
    return arr


def _diag(m):
    """The diagonals of a matrix or of each of a stack of them."""
    return np.diagonal(m, axis1=-2, axis2=-1)


def sigma_matrix(c):
    """Jump-factor matrix of the discount function: entry (i, j) is
    exp(C_ii - C_ij) - 1, with an exactly zero diagonal; of one C or of
    each of a stack of them."""
    c = np.asarray(c, dtype=float)
    sig = np.exp(_diag(c)[..., :, None] - c) - 1.0
    sig[..., range(c.shape[-1]), range(c.shape[-1])] = 0.0
    return sig


def gamma_matrix(a, c, d):
    """Discount-adjusted rate matrix: diagonal A_ii - D_i, off-diagonal
    A_ij exp(C_jj - C_ji); of one (A, C, D) or of each of stacks of them."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    gamma = a * np.exp(_diag(c)[..., None, :] - np.swapaxes(c, -1, -2))
    gamma[..., range(a.shape[-1]), range(a.shape[-1])] = _diag(a) - d
    return gamma


@dataclass(frozen=True)
class MarketSpec:
    """Chain plus discount data C(t), D(t) and per-stock dividend vectors.

    ``c_schedule`` and ``d_schedule`` are (starts, values) schedules of
    ``chain.freeze_schedule``. The rate data of the merged A, C and D
    schedules are computed once, as read-only stacks whose entry k applies
    on [piece_starts[k], piece_starts[k + 1]), the merged starts of the
    three schedules: ``a``, ``c`` and ``d``; ``sigma`` = sigma_matrix(C);
    ``gamma`` = gamma_matrix(A, C, D); ``drift`` = A' - Gamma', the
    z-coefficient of the pricing driver; ``rates``, the short rate per
    state, D_i - sigma_i . A_{:,i}; and ``log_jump``, C_ii - C_ij, the
    log-factor of a jump i -> j.
    """

    chain: ChainSpec
    c_schedule: tuple
    d_schedule: tuple
    dividends: tuple
    n_stocks: int
    r_max: float = 1.0
    piece_starts: tuple = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    drift: np.ndarray = field(init=False, repr=False, compare=False)
    rates: np.ndarray = field(init=False, repr=False, compare=False)
    log_jump: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (c_starts, cs), (d_starts, ds) = self.c_schedule, self.d_schedule
        starts = tuple(sorted(set(c_starts) | set(d_starts) | set(self.chain.starts)))
        a = self.chain.gens[pieces_at(self.chain.starts, starts)]
        c = cs[pieces_at(c_starts, starts)]
        d = ds[pieces_at(d_starts, starts)]
        sig = sigma_matrix(c)
        gamma = gamma_matrix(a, c, d)
        a_t = a.transpose(0, 2, 1)
        tables = {"a": a, "c": c, "d": d, "sigma": sig, "gamma": gamma,
                  "drift": a_t - gamma.transpose(0, 2, 1), "rates": d - dots(sig, a_t),
                  "log_jump": _diag(c)[:, :, None] - c}
        object.__setattr__(self, "piece_starts", starts)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def breakpoints(self):
        """Interior boundaries of the merged A, C and D schedules: the piece
        starts after the first."""
        return self.piece_starts[1:]


def build_market_spec(chain, c_schedule=None, d_schedule=None, dividends=(),
                      r_max=1.0):
    """Validate and freeze the market data.

    C (N x N values) and D (length-N values), zero by default, follow the
    rules of ``chain.freeze_schedule``. The short rate implied by (C, D, A)
    must lie in [0, r_max] everywhere (it is piecewise constant, so checking
    each piece and state of the market's rate table is exact), and dividends
    must be entrywise positive.
    """
    n = chain.n_states
    cs = freeze_schedule(np.zeros((n, n)) if c_schedule is None else c_schedule, (n, n),
                         chain.horizon, "C", lambda c: _check_discount(c, (n, n), "C"))
    ds = freeze_schedule(np.zeros(n) if d_schedule is None else d_schedule, (n,),
                         chain.horizon, "D", lambda d: _check_discount(d, (n,), "D"))
    divs = tuple(np.asarray(d, dtype=float).copy() for d in dividends)
    for j, d in enumerate(divs):
        if d.shape != (n,):
            raise BadScheduleError(f"dividend {j} must be a length-{n} vector")
        if np.any(d <= 0):
            raise BadScheduleError(f"dividend {j} must be entrywise positive")
        d.setflags(write=False)
    market = MarketSpec(chain=chain, c_schedule=cs, d_schedule=ds,
                        dividends=divs, n_stocks=len(divs), r_max=float(r_max))
    bad = np.argwhere((market.rates < -1e-12) | (market.rates > market.r_max + 1e-12))
    if bad.size:
        k, i = bad[0]
        raise RateBoundViolatedError(
            f"short rate {market.rates[k, i]:.6g} outside [0, {market.r_max}] "
            f"at t={market.piece_starts[k]:.4g}, state={i}")
    return market


def short_rate(market, t, state):
    """r(t, i) = D_i - (sigma A)_{ii} with X frozen at state i."""
    return float(market.rates[pieces_at(market.piece_starts, t), state])


def _log_jumps(market, t1, state, to):
    """Log-factor C_ii - C_ij of the jump i -> j = ``to`` at the end t1 of
    each stretch, or 0.0 where the stretch ends without a jump."""
    return np.where(to >= 0, market.log_jump[pieces_at(market.piece_starts, t1), state, to],
                    0.0)


def sdf_stretches(market, paths):
    """The stretches of each path of the batch with log pi along them:
    (path, t0, t1, state, slope, start, total, first), where path, t0, t1
    and state are those of ``PathBatch.stretches`` on the market's
    pieces, log pi is start + slope (t - t0) on [t0, t1), total is
    each path's log pi at the horizon and first the index of its first
    stretch.

    The dX integral of the exponent is a pure-jump Stieltjes sum, so log pi
    is minus the D-drift integral plus the exact jump log-factors
    C_ii - C_ij: its value after each stretch is a running sum over the
    path's stretches.
    """
    n = paths.n_paths
    path, t0, t1, state, piece, to = paths.stretches(market.piece_starts)
    slopes = -market.d[piece, state]
    steps = np.column_stack([slopes * (t1 - t0), _log_jumps(market, t1, state, to)])
    # log pi at 0 and after each stretch (even columns), then the total
    sums = path_sums(n, np.repeat(path, 2), steps.ravel())
    count = np.bincount(path, minlength=n)
    first = np.cumsum(count) - count
    start = sums[path, 2 * (np.arange(path.size) - first[path])]
    return path, t0, t1, state, slopes, start, sums[:, -1], first


def sdf_path(market, paths, grid):
    """Discount factor along each path of the batch at the sorted times of
    ``grid``, closed form, as a (paths, len(grid)) array: exp of the log
    of ``sdf_stretches`` in the stretch in force at each time, and of the
    path's total at the horizon. Starts at 1.
    """
    n = paths.n_paths
    path, t0, t1, _, slopes, start, total, first = sdf_stretches(market, paths)
    count = np.diff(first, append=path.size)
    # the stretch in force at each grid time, clamped to the path's last
    k = counts_at(path, t1, n, grid)
    at_end = k >= count[:, None]
    k += first[:, None]
    np.minimum(k, (first + count - 1)[:, None], out=k)
    log_pi = start[k] + slopes[k] * (grid - t0[k])
    np.copyto(log_pi, total[:, None], where=at_end)
    return np.exp(log_pi, out=log_pi)


def terminal_sdf(market, paths):
    """Exact discount factor at the horizon for each path of the batch: the
    D-drift of every stretch, then the log-factor of every jump."""
    return _terminal_sdf(market, paths.n_paths, paths.stretches(market.piece_starts))


def _terminal_sdf(market, n, cut):
    """``terminal_sdf`` of the n paths whose ``stretches`` on the market's
    pieces are ``cut``."""
    path, t0, t1, state, piece, to = cut
    jump = to >= 0
    rows = np.concatenate([path, path[jump]])
    terms = np.concatenate([-(market.d[piece, state] * (t1 - t0)),
                            _log_jumps(market, t1[jump], state[jump], to[jump])])
    return np.exp(np.bincount(rows, weights=terms, minlength=n))


def sdf_dynamics_residual(market, paths, grid_steps):
    """Integrate the discount SDE (rate drift plus the martingale term with
    exact jump handling) along each path of the batch and compare with the
    closed form: the max gap over the grid nodes, one value per path.

    The pure-rate factor is applied exactly per stretch; the compensator of
    the martingale term uses an Euler increment, so the residual decays
    linearly in the step size and vanishes when C = 0. The integrated
    factor is a running product over the stretches (``chain.sums_at``), not
    the exp of a sum of logs: a stretch's factor exp(-r dt) - comp dt is
    not positive when dt is large.
    """
    grid = uniform_grid(paths.horizon, grid_steps)
    path, t0, t1, state, piece, to = paths.stretches(market.piece_starts, grid)
    # X' sigma A X per piece and state
    comp = np.einsum("kij,kji->ki", market.sigma, market.a)
    dt = t1 - t0
    at_end = pieces_at(market.piece_starts, t1)
    jump = np.where(to >= 0, market.sigma[at_end, state, to], 0.0)
    factors = ((np.exp(-market.rates[piece, state] * dt) - comp[piece, state] * dt)
               * (1.0 + jump))
    pi = sums_at(paths.n_paths, path, factors, t1, grid, op=np.multiply)
    return np.abs(pi - sdf_path(market, paths, grid)).max(axis=1)


@dataclass(frozen=True)
class StockCurves:
    """Per-stock price components s_j(t) in R^N on a uniform grid."""

    grid: np.ndarray
    s: np.ndarray  # (n_stocks, K+1, N)

    @property
    def n_stocks(self):
        return self.s.shape[0]

    def phi_all(self):
        """(K+1, N, n) stack of the N x n matrices phi whose columns are
        the stock vectors at each node."""
        return np.transpose(self.s, (1, 2, 0))


def stock_curves(market, steps=1000):
    """Solve the dividend ODE ds/dt + Gamma' s = -delta backward.

    Seeded at T with the stationary point of the final piece,
    -(Gamma_end')^{-1} delta, then integrated down onto [0, T] by the RK4
    step maps of ``chain.affine_rk4``, all stocks at once, so that each
    sub-step sees a constant Gamma. For time-homogeneous data the seed is
    the exact solution.
    Gamma_end' must be stable (all eigenvalue real parts negative) and the
    resulting prices finite (else ``NonFiniteError``) and strictly
    positive on [0, T].
    """
    chain = market.chain
    horizon = chain.horizon
    gamma_end = market.gamma[-1].T
    eig = np.linalg.eigvals(gamma_end)
    if np.any(eig.real >= -1e-12):
        raise UnstableGammaError(
            f"Gamma' eigenvalue real parts {np.sort(eig.real)} not all negative")
    grid = uniform_grid(horizon, steps)
    n, m = chain.n_states, market.n_stocks
    deltas = np.reshape(market.dividends, (m, n)).T
    # S' = -Gamma' S - deltas, one column per stock
    maps = affine_rk4(market.piece_starts, market.gamma.transpose(0, 2, 1),
                      np.broadcast_to(deltas, (len(market.piece_starts), n, m)), grid)
    # a stack of one-column solves: each stock's seed rounds as its own solve
    s = np.linalg.solve(gamma_end, -deltas.T[:, :, None])[:, :, 0].T
    curves = solve_affine(maps, s, grid, np.arange(grid.size),
                          "stock curve blow-up").transpose(2, 0, 1)
    # a market without stocks has no prices to check
    if market.n_stocks and curves.min() <= 0.0:
        raise NonPositivePricesError(f"stock component hit {curves.min():.6g} <= 0")
    return StockCurves(grid=grid, s=curves)


def stock_sde_residual(market, curves, paths, grid_steps):
    """Integrate the stock dynamics (drift, dividends and the martingale
    term with exact jump handling) along each path of the batch and compare
    with the direct evaluation s(t)'X_t. Max over stocks and grid nodes, one
    value per path. Each stretch takes its drift and compensator at its
    start, with the stock vectors interpolated linearly in t."""
    grid = uniform_grid(paths.horizon, grid_steps)
    path, t0, t1, state, piece, to = paths.stretches(market.piece_starts, grid)
    s = curves.s.transpose(1, 0, 2)  # (K+1, stocks, N)
    s0 = interp(curves.grid, s, t0)
    drift = market.drift[piece, state]
    a_col = market.a[piece, :, state]
    deltas = np.reshape(market.dividends, (market.n_stocks, market.chain.n_states))
    slope = (np.einsum("sn,smn->sm", drift, s0) - deltas[:, state].T
             - np.einsum("smn,sn->sm", s0, a_col))
    s1, rows = interp(curves.grid, s, t1), np.arange(path.size)
    jumped = np.where((to >= 0)[:, None], s1[rows, :, to] - s1[rows, :, state], 0.0)
    terms = slope * (t1 - t0)[:, None] + jumped
    direct = interp(curves.grid, s, grid)[np.arange(grid.size), :, paths.states_at(grid)]
    val = direct[:, :1] + sums_at(paths.n_paths, path, terms, t1, grid)
    return np.abs(val - direct).max(axis=(1, 2), initial=0.0)

"""The Markov-chain market: stochastic discount function, its sigma and
Gamma matrices, the short rate, stock-price curves from the dividend ODE
and pathwise consistency checks of their dynamics.
"""

from dataclasses import dataclass, field

import numpy as np

from .chain import (ChainSpec, counts_at, freeze_schedule, path_sums, piece_index,
                    rk4_down)
from .errors import (BadScheduleError, NonPositivePricesError,
                     RateBoundViolatedError, UnstableGammaError)
from .grids import StateGridFunction, uniform_grid


def _check_discount(value, shape, what):
    """Value check of the C and D schedules: the shape, and finite entries."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise BadScheduleError(f"{what} piece has shape {arr.shape}, want {shape}")
    if not np.all(np.isfinite(arr)):
        raise BadScheduleError(f"{what} piece has non-finite entries")
    return arr


def sigma_matrix(c):
    """Jump-factor matrix of the discount function: entry (i, j) is
    exp(C_ii - C_ij) - 1, with an exactly zero diagonal."""
    c = np.asarray(c, dtype=float)
    sig = np.exp(np.diag(c)[:, None] - c) - 1.0
    np.fill_diagonal(sig, 0.0)
    return sig


def gamma_matrix(a, c, d):
    """Discount-adjusted rate matrix: diagonal A_ii - D_i, off-diagonal
    A_ij exp(C_jj - C_ji)."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    gamma = a * np.exp(np.diag(c)[None, :] - c.T)
    np.fill_diagonal(gamma, np.diag(a) - d)
    return gamma


@dataclass(frozen=True)
class MarketPiece:
    """Rate data in force on one piece of the merged A, C and D schedules.
    Every array is read-only."""

    a: np.ndarray      # generator A
    c: np.ndarray
    d: np.ndarray
    sigma: np.ndarray  # sigma_matrix(C)
    gamma: np.ndarray  # gamma_matrix(A, C, D)
    drift: np.ndarray  # A' - Gamma', the z-coefficient of the pricing driver
    rates: np.ndarray  # short rate per state, D_i - sigma_i . A_{:,i}
    log_jump: np.ndarray  # C_ii - C_ij, the log-factor of a jump i -> j


def _market_piece(a, c, d):
    sig = sigma_matrix(c)
    gamma = gamma_matrix(a, c, d)
    drift = a.T - gamma.T
    rates = np.array([d[i] - sig[i, :] @ a[:, i] for i in range(d.size)])
    log_jump = np.diag(c)[:, None] - c
    for arr in (sig, gamma, drift, rates, log_jump):
        arr.setflags(write=False)
    return MarketPiece(a=a, c=c, d=d, sigma=sig, gamma=gamma, drift=drift,
                       rates=rates, log_jump=log_jump)


@dataclass(frozen=True)
class MarketSpec:
    """Chain plus discount data C(t), D(t) and per-stock dividend vectors.

    ``pieces`` holds the rate data of each piece of the merged A, C and D
    schedules, computed once; piece k applies on
    [piece_starts[k], piece_starts[k + 1]), the merged starts of the three
    schedules.
    """

    chain: ChainSpec
    c_schedule: tuple
    d_schedule: tuple
    dividends: tuple
    n_stocks: int
    r_max: float = 1.0
    piece_starts: tuple = field(init=False, repr=False, compare=False)
    pieces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c_starts = tuple(s for s, _ in self.c_schedule)
        d_starts = tuple(s for s, _ in self.d_schedule)
        starts = tuple(sorted(set(c_starts) | set(d_starts) | set(self.chain.starts)))
        pieces = tuple(
            _market_piece(self.chain.generator_at(t),
                          self.c_schedule[piece_index(c_starts, t)][1],
                          self.d_schedule[piece_index(d_starts, t)][1])
            for t in starts)
        object.__setattr__(self, "piece_starts", starts)
        object.__setattr__(self, "pieces", pieces)

    def piece_at(self, t):
        """Rate data in force at time t (right-continuous pieces, clamped
        to the first and last piece outside [0, horizon))."""
        return self.pieces[piece_index(self.piece_starts, t)]

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
    for t, piece in zip(market.piece_starts, market.pieces):
        for i, r in enumerate(piece.rates):
            if r < -1e-12 or r > market.r_max + 1e-12:
                raise RateBoundViolatedError(
                    f"short rate {r:.6g} outside [0, {market.r_max}] "
                    f"at t={t:.4g}, state={i}")
    return market


def short_rate(market, t, state):
    """r(t, i) = D_i - (sigma A)_{ii} with X frozen at state i."""
    return float(market.piece_at(t).rates[state])


def _log_jumps(market, t1, state, to):
    """Log-factor C_ii - C_ij of the jump i -> j = ``to`` at the end t1 of
    each stretch, or 0.0 where the stretch ends without a jump."""
    table = np.array([piece.log_jump for piece in market.pieces])
    piece = np.maximum(np.searchsorted(market.piece_starts, t1, side="right") - 1, 0)
    return np.where(to >= 0, table[piece, state, to], 0.0)


def sdf_path(market, paths, grid):
    """Discount factor along each path of the batch at the sorted times of
    ``grid``, closed form, as a (paths, len(grid)) array.

    The dX integral of the exponent is a pure-jump Stieltjes sum, so the
    discount factor is exp of minus the D-drift integral times the exact
    jump factors exp(C_ii - C_ij). Starts at 1. The log is piecewise
    linear between jump/schedule events: its value after each stretch is a
    running sum over the path's stretches, and the grid values interpolate
    it.
    """
    n = paths.n_paths
    path, t0, t1, state, piece, to = paths.stretches(market.breakpoints(),
                                                     market.piece_starts)
    slopes = -np.array([p.d for p in market.pieces])[piece, state]
    steps = np.column_stack([slopes * (t1 - t0), _log_jumps(market, t1, state, to)])
    # log pi at 0 and after each stretch (even columns), then the total
    sums = path_sums(n, np.repeat(path, 2), steps.ravel())
    count = np.bincount(path, minlength=n)
    first = np.cumsum(count) - count
    start = sums[path, 2 * (np.arange(path.size) - first[path])]
    # the stretch in force at each grid time, clamped to the path's last
    k = counts_at(path, t1, n, grid)
    at_end = k >= count[:, None]
    k += first[:, None]
    np.minimum(k, (first + count - 1)[:, None], out=k)
    log_pi = start[k] + slopes[k] * (grid - t0[k])
    np.copyto(log_pi, sums[:, -1:], where=at_end)
    return np.exp(log_pi, out=log_pi)


def terminal_sdf(market, paths):
    """Exact discount factor at the horizon for each path of the batch: the
    D-drift of every stretch, then the log-factor of every jump."""
    path, t0, t1, state, piece, to = paths.stretches(market.breakpoints(),
                                                     market.piece_starts)
    d = np.array([p.d for p in market.pieces])
    jump = to >= 0
    rows = np.concatenate([path, path[jump]])
    terms = np.concatenate([-(d[piece, state] * (t1 - t0)),
                            _log_jumps(market, t1, state, to)[jump]])
    return np.exp(path_sums(paths.n_paths, rows, terms)[:, -1])


def sdf_dynamics_residual(market, paths, grid_steps):
    """Integrate the discount SDE (rate drift plus the martingale term with
    exact jump handling) along each path of the batch and compare with the
    closed form: the max gap over the grid nodes, one value per path.

    The pure-rate factor is applied exactly per step; the compensator of
    the martingale term uses an Euler increment, so the residual decays
    linearly in the step size and vanishes when C = 0.
    """
    grid = uniform_grid(paths.horizon, grid_steps)
    closed = sdf_path(market, paths, grid)
    cuts = sorted(set(grid.tolist()) | set(market.breakpoints()))
    walk = paths.stretches(cuts, market.piece_starts)
    worst = np.zeros(paths.n_paths)
    for p, t0, t1, state, k, to in zip(*(a.tolist() for a in walk)):
        if t0 == 0.0:  # the path's first stretch
            pi = 1.0
            gi = 1
        dt = t1 - t0
        piece = market.pieces[k]
        r = float(piece.rates[state])
        comp = float(piece.sigma[state, :] @ piece.a[:, state])  # X' sigma A X
        pi = pi * np.exp(-r * dt) - pi * comp * dt
        if to >= 0:
            pi += pi * market.piece_at(t1).sigma[state, to]
        while gi < grid.size and grid[gi] <= t1 + 1e-15:
            worst[p] = max(worst[p], abs(pi - closed[p, gi]))
            gi += 1
    return worst


@dataclass(frozen=True)
class StockCurves:
    """Per-stock price components s_j(t) in R^N on a uniform grid."""

    grid: np.ndarray
    s: np.ndarray  # (n_stocks, K+1, N)

    @property
    def n_stocks(self):
        return self.s.shape[0]

    def curve(self, j):
        return StateGridFunction(grid=self.grid, values=self.s[j])

    def phi_all(self):
        """(K+1, N, n) stack of the N x n matrices phi whose columns are
        the stock vectors at each node."""
        return np.transpose(self.s, (1, 2, 0))


def stock_curves(market, steps=1000):
    """Solve the dividend ODE ds/dt + Gamma' s = -delta backward.

    Seeded at T with the stationary point of the final piece,
    -(Gamma_end')^{-1} delta, then integrated down onto [0, T] with
    ``chain.rk4_down``, so that each sub-step sees a constant Gamma. For
    time-homogeneous data the seed is the exact solution.
    Gamma_end' must be stable (all eigenvalue real parts negative) and the
    resulting prices strictly positive on [0, T].
    """
    chain = market.chain
    horizon = chain.horizon
    gamma_end = market.piece_at(horizon).gamma.T
    eig = np.linalg.eigvals(gamma_end)
    if np.any(eig.real >= -1e-12):
        raise UnstableGammaError(
            f"Gamma' eigenvalue real parts {np.sort(eig.real)} not all negative")
    grid = uniform_grid(horizon, steps)
    breakpts = market.breakpoints()
    curves = np.empty((market.n_stocks, grid.size, chain.n_states))
    for j, delta in enumerate(market.dividends):
        delta = np.asarray(delta, dtype=float)
        s = np.linalg.solve(gamma_end, -delta)

        def field(t_mid):
            g = market.piece_at(t_mid).gamma.T
            return lambda t, v: -g @ v - delta

        curves[j, -1] = s
        for k in range(grid.size - 2, -1, -1):
            s = rk4_down(breakpts, grid[k + 1], grid[k], s, field)
            curves[j, k] = s
    # a market without stocks has no prices to check
    if market.n_stocks and curves.min() <= 0.0:
        raise NonPositivePricesError(f"stock component hit {curves.min():.6g} <= 0")
    return StockCurves(grid=grid, s=curves)


def stock_sde_residual(market, curves, paths, grid_steps):
    """Integrate the stock dynamics (drift, dividends and the martingale
    term with exact jump handling) along each path of the batch and compare
    with the direct evaluation s(t)'X_t. Max over stocks and grid nodes, one
    value per path."""
    grid = uniform_grid(paths.horizon, grid_steps)
    cuts = sorted(set(grid.tolist()) | set(market.breakpoints()))
    walk = [a.tolist() for a in paths.stretches(cuts, market.piece_starts)]
    states = paths.states_at(grid)
    worst = np.zeros(paths.n_paths)
    for j, delta in enumerate(market.dividends):
        curve = curves.curve(j)
        for p, t0, t1, state, k, to in zip(*walk):
            if t0 == 0.0:  # the path's first stretch
                val = curve.interp(0.0)[state]
                gi = 1
            piece = market.pieces[k]
            s_vec = curve.interp(t0)
            drift = float((piece.drift @ s_vec)[state] - delta[state])
            comp = float(s_vec @ piece.a[:, state])
            val += (drift - comp) * (t1 - t0)
            if to >= 0:
                sv = curve.interp(t1)
                val += float(sv[to] - sv[state])
            while gi < grid.size and grid[gi] <= t1 + 1e-15:
                direct = curve.interp(grid[gi])[states[p, gi]]
                worst[p] = max(worst[p], abs(val - direct))
                gi += 1
    return worst

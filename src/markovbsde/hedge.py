"""American-option superhedging in the chain market: the pricing driver,
its contraction report, RBSDE pricing, hedge extraction, forward
replication and the discounted optimal-stopping consistency check.
"""

from dataclasses import dataclass

import numpy as np

from .bsde import AffineForm, MarkovDriver
from .chain import check_contraction, path_chunks, pieces_at, rate_bound_m
from .errors import (ContractionViolatedError, DimensionMismatchError,
                     SingularPhiError)
from .market import sdf_path
from .rbsde import solve_reflected


@dataclass(frozen=True)
class HedgeStrategy:
    """Stock holdings h (per time), bond holdings h0 and bond account B
    (per time and state), plus the path-independent terms of the wealth
    equation: the stock leg phi h, and per step and state the wealth change
    between jumps (``carry``)."""

    grid: np.ndarray
    h: np.ndarray          # (K+1, n) stock holdings
    h0: np.ndarray         # (K+1, N) bond holdings
    bond: np.ndarray       # (K+1, N) state-frozen bond account
    stock_leg: np.ndarray  # (K+1, N) phi h
    carry: np.ndarray      # (K, N) drift and bond leg, minus the push


def hedge_driver(market, t, state, v, z):
    """Pricing driver: -r v + r z_i - ((A' - Gamma') z)_i at state i."""
    piece = market.piece_at(t)
    r = float(piece.rates[state])
    return -r * v + r * z[state] - float((piece.drift @ z)[state])


def make_hedge_driver(market):
    """MarkovDriver wrapper with measured Lipschitz constants. Its affine
    form holds, per market piece, alpha = -r and G = diag(r) - (A' - Gamma')."""
    rep = driver_constants(market)
    rates = np.array([piece.rates for piece in market.pieces])
    gz = np.array([np.diag(piece.rates) - piece.drift for piece in market.pieces])
    return MarkovDriver(
        evaluate=lambda t, i, v, z: hedge_driver(market, t, i, v, z),
        lipschitz_y=rep["c4"], lipschitz_z=rep["c6"],
        affine=AffineForm(starts=market.piece_starts, alpha=-rates, gz=gz))


def driver_constants(market):
    """Bounds entering the contraction condition of the pricing driver.

    c1 bounds |(A - Gamma)X|, c4 the short rate, c5 the full z-coefficient
    |(-r + (A - Gamma))X|; c6 converts to a combined Lipschitz constant
    (the Euclidean z-slope scaled by sqrt(3m) to sit against the
    quadratic-variation seminorm). Maxima run over ``market.pieces``.
    """
    chain = market.chain
    c1 = c4 = c5 = 0.0
    for piece in market.pieces:
        diff = piece.drift.T  # A - Gamma
        for i in range(chain.n_states):
            r = float(piece.rates[i])
            c1 = max(c1, float(np.linalg.norm(diff[:, i])))
            c4 = max(c4, abs(r))
            vec = diff[:, i].copy()
            vec[i] -= r
            c5 = max(c5, float(np.linalg.norm(vec)))
    m = rate_bound_m(chain)
    c6 = max(c4, c5 * np.sqrt(3.0 * m) if m > 0 else 0.0)
    return {"c1": c1, "c4": c4, "c5": c5, "c6": c6, "m": m}


def contraction_report(market):
    """Recompute the driver constants and delegate to the chain-level
    contraction check with l2 = c6; both run per schedule piece."""
    consts = driver_constants(market)
    report = check_contraction(market.chain, consts["c6"])
    report.update(consts)
    return report


def price_american(market, payoff, steps, strict_contraction=False):
    """Price the American claim as the reflected BSDE with the pricing
    driver, the obstacle ``payoff`` and terminal g(T, .). Under
    ``strict_contraction`` a pricing driver that fails the contraction
    check raises ``ContractionViolatedError``."""
    driver = make_hedge_driver(market)
    if strict_contraction:
        rep = check_contraction(market.chain, driver.lipschitz_z)
        if not rep["holds"]:
            raise ContractionViolatedError(
                f"pricing driver violates the contraction condition, "
                f"margin {rep['worst_margin']:.3g}")
    terminal = payoff.terminal(market.chain.horizon, market.chain.n_states)
    return solve_reflected(market.chain, driver, terminal, payoff, steps)


def extract_hedge(market, curves, solution):
    """Solve phi h = z at every node for the stock holdings, then read the
    bond holdings off the accounting identity V = h0 B + sum h_j S_j.

    The bond account is state-frozen: B_i(t) = exp(int r(u, i) du), by the
    trapezoid rule over the node rates. The strategy also carries the
    path-independent terms that ``replicate_forward`` gathers along paths.
    """
    n = market.chain.n_states
    if market.n_stocks != n:
        raise DimensionMismatchError(
            f"hedge extraction needs n_stocks == n_states, got "
            f"{market.n_stocks} != {n}")
    grid = solution.grid
    if curves.grid.size != grid.size or abs(curves.grid[-1] - grid[-1]) > 1e-12:
        raise ValueError("stock curves and solution must share the grid")
    phis = curves.phi_all()  # (K+1, N, n)
    sv = np.linalg.svd(phis, compute_uv=False)
    singular = np.nonzero(sv[:, -1] < 1e-10 * np.maximum(sv[:, 0], 1.0))[0]
    if singular.size:
        k = singular[0]
        raise SingularPhiError(
            f"phi singular at t={grid[k]:.6g} (smallest sv {sv[k, -1]:.3g})")
    h = np.linalg.solve(phis, solution.values[:, :, None])[:, :, 0]
    piece_of = pieces_at(market.piece_starts, grid)  # the piece in force at each node
    rates = np.array([piece.rates for piece in market.pieces])[piece_of]
    dt = grid[1] - grid[0]
    bond = np.ones((grid.size, n))
    bond[1:] = np.cumprod(np.exp(0.5 * (rates[:-1] + rates[1:]) * dt), axis=0)
    stock_leg = np.einsum("knj,kj->kn", phis, h)
    h0 = (solution.values - stock_leg) / bond
    # per-(step, state) drift of the risky leg, with holdings and stock
    # vectors at the step's right node and rate matrices at its left node;
    # per stock, price drift plus dividend minus the jump compensator
    # telescopes to -(Gamma' s), so the drift is -(Gamma' phi h)
    drift = np.empty((grid.size - 1, n))
    bond_leg = np.empty((grid.size - 1, n))
    for k, piece in enumerate(market.pieces):
        mask = piece_of[:-1] == k
        drift[mask] = -(stock_leg[1:][mask] @ piece.gamma)
        bond_leg[mask] = h0[1:][mask] * piece.rates * bond[1:][mask]
    carry = dt * (drift + bond_leg) - solution.step_pushes
    return HedgeStrategy(grid=grid, h=h, h0=h0, bond=bond, stock_leg=stock_leg,
                         carry=carry)


def replicate_forward(strategy, solution, paths):
    """Simulate the self-financing wealth equation forward along each path
    of the batch and compare with the priced value surface and the
    obstacle. Returns (paths,) arrays of the largest gap to the value, of
    whether the wealth dominates the payoff, and of the terminal gap.

    Per step the wealth moves by the strategy's ``carry`` in the state left
    behind (bond leg, stock drift and the consumption dK) plus, on a jump,
    the exact increment of the stock leg. The drift mirrors the backward
    scheme's endpoint choices, so a correct strategy tracks the value to
    machine precision. The paths run in batches whose (paths x nodes)
    tables fit in ``chain._CELLS`` cells.
    """
    parts = [_replicate(strategy, solution, batch)
             for batch in paths.chunks(solution.grid.size)]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _replicate(strategy, solution, paths):
    """``replicate_forward`` on one batch, whose tables go when this returns."""
    idx = np.arange(solution.grid.size)
    states = paths.states_at(solution.grid)
    i0, i1 = states[:, :-1], states[:, 1:]
    inc = strategy.carry[idx[:-1], i0]
    leg = strategy.stock_leg
    p, k = np.nonzero(i1 != i0)  # the steps with a jump, which move the stock leg
    inc[p, k] += leg[k + 1, i1[p, k]] - leg[k + 1, i0[p, k]]
    target = solution.values[idx, states]
    wealth = np.concatenate((target[:, :1], target[:, :1] + np.cumsum(inc, axis=1)),
                            axis=1)
    payoff_path = solution.g[idx, states]
    return {"max_gap": np.abs(wealth - target).max(axis=1),
            "dominates": np.all(wealth >= payoff_path - 1e-9, axis=1),
            "terminal_gap": np.abs(wealth[:, -1] - payoff_path[:, -1])}


def _discounted_h_matrix(market, solution):
    """Per-(node, state) value of the discounted driver applied to the
    undeflated canonical integrand; linear in the deflator. Built per
    schedule piece, on the nodes where it is in force."""
    z = solution.values
    out = np.empty(z.shape)
    piece_of = pieces_at(market.piece_starts, solution.grid)
    for k, piece in enumerate(market.pieces):
        mask = piece_of == k
        zk = z[mask]
        # row i: sum_j A_ji sigma_ij (z_j - z_i), summed as one row of N
        cross = np.sum(piece.a.T * piece.sigma * (zk[:, None, :] - zk[:, :, None]), axis=2)
        out[mask] = -piece.rates * zk + (piece.drift @ zk[:, :, None])[:, :, 0] - cross
    return out


def _stopped_values(market, batch, solution, h_mat, g_mat):
    """Per path of the batch: the discounted driver integral up to the
    first touch of the obstacle plus the deflated payoff there; and whether
    the deflated value dominates the deflated payoff all along. The
    batch's (paths x nodes) tables live until this returns."""
    grid = solution.grid
    idx = np.arange(grid.size)
    pi = sdf_path(market, batch, grid)
    states = batch.states_at(grid)
    v_path = solution.values[idx, states]
    g_path = g_mat[idx, states]
    dominates = not np.any(pi * v_path < pi * g_path - 1e-9)
    touch = v_path <= g_path + 1e-9
    stop = np.where(touch.any(axis=1), touch.argmax(axis=1), grid.size - 1)
    # trapezoid over [0, t_stop]; no steps, and 0.0, when stopping at 0.
    # One reduction per path over its own slice groups the terms as the
    # sum of that slice alone does.
    seg = pi * h_mat[idx, states]
    trap = 0.5 * (seg[:, :-1] + seg[:, 1:])
    integral = np.array([np.add.reduce(row[:k]) for row, k in zip(trap, stop)])
    rows = np.arange(batch.n_paths)
    return integral * (grid[1] - grid[0]) + pi[rows, stop] * g_path[rows, stop], dominates


def discounted_value_check(market, payoff, solution, n_paths, seed_base=0):
    """Monte Carlo check of the discounted optimal-stopping representation.

    For each path: stop at the first touch of the obstacle, accumulate the
    discounted driver integral up to the stop and add the deflated payoff
    there; the average must match the time-zero value within 3 standard
    errors. Also checks the deflated value dominates the deflated payoff
    along every path. Paths are drawn in one ``draw_paths`` pass and
    checked batch by batch, each batch as many paths as its (paths x grid
    nodes) tables, or the wider table of ``sdf_path``'s log-factor sums,
    fit in ``chain._CELLS`` cells.
    """
    grid = solution.grid
    n_cuts = len(market.breakpoints())
    chunks = path_chunks(market.chain, seed_base, n_paths,
                         lambda batch: max(grid.size, 2 * batch.sum_width(n_cuts)))
    h_mat = _discounted_h_matrix(market, solution)
    g_mat = payoff.sample(grid, market.chain.n_states)
    samples, dominates = zip(*(_stopped_values(market, batch, solution, h_mat, g_mat)
                               for batch in chunks))
    samples = np.concatenate(samples)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    target = float(solution.values[0, market.chain.initial_state])
    passed = abs(mean - target) <= 3.0 * se + 1e-12
    return {"mc_value": mean, "std_error": se, "solver_value": target,
            "pass": bool(passed), "dominates": all(dominates),
            "n_paths": int(n_paths)}

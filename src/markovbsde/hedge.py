"""American-option superhedging in the chain market: the pricing driver,
its contraction report, RBSDE pricing, hedge extraction, forward
replication and the discounted optimal-stopping consistency check.
"""

from dataclasses import dataclass

import numpy as np

from .bsde import AffineForm, MarkovDriver, _contraction
from .chain import (cell_parts, check_contraction, dots, gate, path_chunks, pieces_at,
                    rate_bound_m, runs, substeps)
from .errors import DimensionMismatchError, SingularPhiError
from .market import sdf_stretches
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


def make_hedge_driver(market):
    """The pricing driver f = -r v + r z_i - ((A' - Gamma') z)_i with
    measured Lipschitz constants, as its affine form: per market piece,
    alpha = -r and G = diag(r) - (A' - Gamma'); f is read off the form."""
    rep = driver_constants(market)
    gz = market.rates[:, :, None] * np.eye(market.chain.n_states) - market.drift
    return MarkovDriver(lipschitz_y=rep["c4"], lipschitz_z=rep["c6"],
                        affine=AffineForm(starts=market.piece_starts, alpha=-market.rates,
                                          gz=gz))


def driver_constants(market):
    """Bounds entering the contraction condition of the pricing driver.

    c1 bounds |(A - Gamma)X|, c4 the short rate, c5 the full z-coefficient
    |(-r + (A - Gamma))X|; c6 converts to a combined Lipschitz constant
    (the Euclidean z-slope scaled by sqrt(3m) to sit against the
    quadratic-variation seminorm). Maxima run over the market's pieces and
    states; each norm is rounded as ``np.linalg.norm`` of its vector.
    """
    # row i of drift[k] is column i of A - Gamma on piece k; in C order,
    # as np.linalg.norm takes the norm of a contiguous copy of a column
    diff = np.ascontiguousarray(market.drift)
    vec = diff - market.rates[:, :, None] * np.eye(market.chain.n_states)
    c1 = float(np.sqrt(dots(diff, diff)).max(initial=0.0))
    c4 = float(np.abs(market.rates).max(initial=0.0))
    c5 = float(np.sqrt(dots(vec, vec)).max(initial=0.0))
    m = rate_bound_m(market.chain)
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
        _contraction(market.chain, driver.lipschitz_z, True)
    terminal = payoff.terminal(market.chain.horizon, market.chain.n_states)
    return solve_reflected(market.chain, driver, terminal, payoff, steps)


def extract_hedge(market, curves, solution):
    """Solve phi h = z at every node for the stock holdings, then read the
    bond holdings off the accounting identity V = h0 B + sum h_j S_j.

    The bond account is state-frozen: B_i(t) = exp(int r(u, i) du), one exp
    of a running sum over the steps, exact for the piecewise-constant short
    rate: each step adds r h per sub-step of ``chain.substeps`` at the
    market breakpoints, under the sub-step's piece, and a step that holds
    no breakpoint adds r dt. The strategy also carries the path-independent
    terms that ``replicate_forward`` gathers along paths.
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
    dt = grid[1] - grid[0]
    times, first = substeps(market.breakpoints(), grid)
    h_sub = np.diff(times)
    h_sub[first[:-1][np.diff(first) == 1]] = dt  # an uncut step is dt long, as solved
    r_dt = market.rates[pieces_at(market.piece_starts, times[:-1])] * h_sub[:, None]
    bond = np.ones((grid.size, n))
    bond[1:] = np.exp(np.cumsum(np.add.reduceat(r_dt, first[:-1]), axis=0))
    stock_leg = np.einsum("knj,kj->kn", phis, h)
    h0 = (solution.values - stock_leg) / bond
    # per-(step, state) drift of the risky leg, with holdings and stock
    # vectors at the step's right node and rate matrices at its left node;
    # per stock, price drift plus dividend minus the jump compensator
    # telescopes to -(Gamma' s), so the drift is -(Gamma' phi h)
    left = pieces_at(market.piece_starts, grid[:-1])  # the piece at each left node
    drift = -(stock_leg[1:, None, :] @ market.gamma[left])[:, 0]
    bond_leg = h0[1:] * market.rates[left] * bond[1:]
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
    undeflated canonical integrand; linear in the deflator. Each node
    reads the rate data of the piece in force there."""
    z = solution.values
    piece_of = pieces_at(market.piece_starts, solution.grid)
    # row i: sum_j A_ji sigma_ij (z_j - z_i), summed as one row of N
    cross = np.sum(market.a.transpose(0, 2, 1)[piece_of] * market.sigma[piece_of]
                   * (z[:, None, :] - z[:, :, None]), axis=2)
    return (-market.rates[piece_of] * z + (market.drift[piece_of] @ z[:, :, None])[:, :, 0]
            - cross)


def _stopped_values(market, batch, grid, tables):
    """Per path of the batch: the discounted driver integral up to the
    first node where the value touches the obstacle plus the deflated
    payoff there; and whether the deflated value dominates the deflated
    payoff at every node. ``tables`` holds the check's (nodes, states)
    tables v, g, the discounted driver h, the next touching node and where
    v < g (None where it is nowhere), then its row (``_row``): the terms pi
    h of the stretch every path starts on, the first node where the row
    fails dominance, and the values of a path that stops on the row at its
    first touch and at node K.

    A path reads its head off the row: the nodes of its first stretch up to
    node K - 1, and node K too on a path that never leaves the row. A path
    that stops in its head takes the row's value. For the others, pi is
    evaluated only at the (stretch, node) cells after the head up to the
    stop, each stretch's nodes those it holds (``chain.runs``), and, for
    dominance, at the cells after the head where v < g; both in parts of
    whole paths of at most ``chain._CELLS`` cells (``cell_parts``)."""
    v, g, h, nxt, below, x_row, fail, (at_touch, at_k) = tables
    last = grid.size - 1
    path, t0, state, slope, start, total, first = sdf_stretches(market, batch)
    final = batch.states[batch.offsets[1:] + np.arange(batch.n_paths)]  # each state at T
    lo, hi = runs(grid, t0, first)
    # the first touch over a path's stretches, or node K
    at = nxt[lo, state]
    stop = np.minimum.reduceat(np.where(at < hi, at, last), first[:-1])
    stays = (np.diff(first) == 1) & (final == state[first[:-1]])  # one stretch, no jump at T
    head = np.where(stays, grid.size, np.minimum(hi[first[:-1]], last))
    lo[first[:-1]] = head  # each path's cells off the row begin after its head

    def cells(a, b, counts):
        """The first counts[j] nodes from lo[j] of each stretch j of the
        paths a .. b - 1, as flat cells in path, then time order: (node,
        state, log pi, the end of each stretch's cells). Node K takes the
        state after a jump there and log pi at the horizon, as ``sdf_path``
        does."""
        j = slice(first[a], first[b])
        counts = counts[j]
        ends = np.cumsum(counts)
        node = np.arange(ends[-1])
        node -= np.repeat(ends - counts - lo[j], counts)
        log_pi = grid[node]
        log_pi -= np.repeat(t0[j], counts)
        log_pi *= np.repeat(slope[j], counts)
        log_pi += np.repeat(start[j], counts)
        s = np.repeat(state[j], counts)
        at_k = (counts > 0) & (lo[j] + counts == grid.size)
        s[ends[at_k] - 1] = final[path[j][at_k]]
        log_pi[ends[at_k] - 1] = total[path[j][at_k]]
        return node, s, log_pi, ends

    def fails(part):
        node, s, log_pi, _ = cells(*part, hi - lo)
        low = below[node, s]
        node, s, pi = node[low], s[low], np.exp(log_pi[low])
        return np.any(pi * v[node, s] < pi * g[node, s] - 1e-9)

    # where v >= g, rounding is monotone and pi > 0, so fl(pi v) >= fl(pi g)
    # > fl(pi g) - 1e-9: only the cells where v < g can fail
    dominates = below is None or not (np.any(fail < head)
                                      or any(map(fails, cell_parts(grid.size - head))))
    samples = np.where(stop < last, at_touch, at_k)  # the paths that stop on the row
    rest = np.maximum(np.minimum(hi, stop[path] + 1) - lo, 0)
    n_cells = np.where(stop < head, 0, stop + 1)
    for a, b in cell_parts(n_cells):
        n = n_cells[a:b]
        leave = n > 0
        if not leave.any():
            continue
        begin = np.cumsum(n) - n
        node, s, pi, ends = cells(a, b, rest)
        pi = np.exp(pi, out=pi)
        # a path's cells are its nodes 0 .. stop: its head's terms off the
        # row, then its own
        j = slice(first[a], first[b])
        x = np.arange(begin[-1] + n[-1])
        x -= np.repeat(begin, n)
        x = x_row[x]
        x[node + np.repeat(begin[path[j] - a], rest[j])] = pi * h[node, s]
        # trapezoid over [0, t_stop]: each path's terms, from its first cell
        # to its last, reduced by ``np.add.reduceat`` (the odd segments hold
        # one term across two paths)
        trap = np.add(x[:-1], x[1:], out=x[:-1])
        trap *= 0.5
        bounds = np.column_stack([begin, begin + n - 1])[leave].ravel()[:-1]
        end = ends[first[a + 1:b + 1] - 1 - first[a]][leave] - 1  # each path's stop
        samples[a:b][leave] = (np.add.reduceat(trap, bounds)[::2] * (grid[1] - grid[0])
                               + pi[end] * g[node[end], s[end]])
    return samples, dominates


def _row(market, grid, v, g, h, nxt):
    """The row of ``_stopped_values``. Every path starts on a stretch from
    t = 0 in the initial state x0, on the first market piece, with log pi =
    0: along it log pi = slope t at the nodes, and a path that never leaves
    it has log pi = slope T at node K, its value at the horizon."""
    x0 = market.chain.initial_state
    pi = np.exp(-market.d[0, x0] * np.append(grid[:-1], market.chain.horizon))
    x = pi * h[:, x0]
    fail = np.append(np.flatnonzero((v[:, x0] < g[:, x0])
                                    & (pi * v[:, x0] < pi * g[:, x0] - 1e-9)), grid.size)[0]
    # a prefix of the row's trapezoid terms reduces as a path's own do in
    # ``_stopped_values``: by ``np.add.reduceat``, and to 0.0 when stopping at 0
    trap = np.append(0.5 * (x[:-1] + x[1:]), 0.0)
    stops = min(nxt[0, x0], grid.size - 1), grid.size - 1
    return x, fail, [(np.add.reduceat(trap, [0, k])[0] if k else 0.0) * (grid[1] - grid[0])
                     + pi[k] * g[k, x0] for k in stops]


def discounted_value_check(market, payoff, solution, n_paths, seed_base=0):
    """Monte Carlo check of the discounted optimal-stopping representation.

    For each path: stop at the first touch of the obstacle, accumulate the
    discounted driver integral up to the stop and add the deflated payoff
    there; the average must match the time-zero value within 3 standard
    errors. Also checks the deflated value dominates the deflated payoff
    along every path. Paths are drawn in one ``draw_paths`` pass and
    checked batch by batch on their stretches (``_stopped_values``) against
    tables built once per check: the next touching node per node and
    state, and the row of the stretch every path starts on (``_row``).
    Each batch has as many paths as ``sdf_stretches``' table of log-factor
    sums (``PathBatch.sum_width``) fits in ``chain._CELLS`` cells.
    """
    grid = solution.grid
    n_cuts = len(market.breakpoints())
    chunks = path_chunks(market.chain, seed_base, n_paths,
                         lambda batch: 2 * batch.sum_width(n_cuts))
    v = solution.values
    g = payoff.sample(grid, market.chain.n_states)
    h = _discounted_h_matrix(market, solution)
    # per node and state, the first node from it on where the value
    # touches the obstacle in that state, or K + 1
    node = np.arange(grid.size)[:, None]
    nxt = np.minimum.accumulate(np.where(v <= g + 1e-9, node, grid.size)[::-1])[::-1]
    below = v < g
    tables = (v, g, h, nxt, below if below.any() else None,
              *_row(market, grid, v, g, h, nxt))
    samples, dominates = zip(*(_stopped_values(market, batch, grid, tables)
                               for batch in chunks))
    target = float(solution.values[0, market.chain.initial_state])
    mean, se, passed = gate(np.concatenate(samples), target)
    return {"mc_value": mean, "std_error": se, "solver_value": target,
            "pass": passed, "dominates": all(dominates),
            "n_paths": int(n_paths)}
